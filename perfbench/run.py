#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload hash-read --seed 1 --seconds 10 --trace 0

Builds vbrperf and vbr-kv from the source tree (dune, release profile),
runs one measurement, and relays its output. The last line of standard
output is the JSON result: {"correct", "attempted", "failed", "metrics"}.
Result and span files go to perfbench/out/. Exits non-zero without a
result when the sources are missing, the build fails or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hash-read", "hash-large", "list-balanced")
REQUIRED = ("BENCHMARK.json", "dune-project", "lib", "bin/vbr_kv.ml", "perfbench/dune-project")
TARGETS = ("./perfbench/main/vbrperf.exe", "./bin/vbr_kv.exe")
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """A backstop past vbrperf's own deadlines, which end a hung run with
    failed ops well within this: 170 s for a 20 s window."""
    return 130 + 2 * seconds


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, subdirs, fs in os.walk(path)
            if not os.path.relpath(d, ROOT).startswith(os.path.join("perfbench", "out"))
            for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_group(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout
    or interruption, so no child outlives this script."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        fail("interrupted")

    signal.signal(signal.SIGTERM, kill)
    signal.signal(signal.SIGINT, kill)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    # The benchmark stops its servers itself; this reaps anything left.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("source tree incomplete (missing %s); run from a full checkout" % ", ".join(missing), 2)
    if shutil.which("dune") is None:
        fail("dune not found on PATH", 2)

    t0 = time.monotonic()
    # --cache=disabled: dune's shared cache lives outside the checkout.
    build = subprocess.run(["dune", "build", "--root", ".", "--profile", "release",
                            "--cache=disabled", *TARGETS],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")
    print("perfbench: build %.1f s" % (time.monotonic() - t0), file=sys.stderr)

    out_dir = os.path.join("perfbench", "out")
    os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main", "vbrperf.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--kv-bin", os.path.join("_build", "default", "bin", "vbr_kv.exe"),
           "--out-dir", out_dir, "--rev", revision(), "--profile", "release"]
    code, out = run_group(cmd, run_timeout_s(args.seconds))
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("vbrperf exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail("vbrperf printed no result line")
    # The metrics must be exactly the ones BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
