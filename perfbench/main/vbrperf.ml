(* vbrperf: one run of one benchmark workload. Prints the metric table,
   writes the full result (with provenance) under --out-dir, and ends its
   standard output with the one-line JSON result.

   Usage:
     vbrperf.exe --workload hash-read --seed 1 --seconds 10 --trace 0 \
       --kv-bin _build/default/bin/vbr_kv.exe --out-dir perfbench/out

   perfbench/run.py builds the binaries and calls this. *)

open Perfbench

let () =
  Bench.child_entry ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let kv_bin = ref "" and out_dir = ref "perfbench/out" and rev = ref "unknown" in
  let profile = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--seconds", Arg.Set_float seconds, "S timed window length");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--kv-bin", Arg.Set_string kv_bin, "PATH vbr-kv executable");
      ("--out-dir", Arg.Set_string out_dir, "DIR where result and span files go");
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
      ("--profile", Arg.Set_string profile, "P build profile, for provenance");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "vbrperf.exe [options]";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "vbrperf: unknown workload %S (expected %s)\n" !workload
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "vbrperf: --trace must be 0 or 1"; exit 2);
  if !seconds <= 0. then (prerr_endline "vbrperf: --seconds must be positive"; exit 2);
  if !kv_bin = "" || not (Sys.file_exists !kv_bin) then (
    Printf.eprintf "vbrperf: vbr-kv executable %S not found\n" !kv_bin;
    exit 2);
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let tr = !trace = 1 in
  let c =
    { Bench.workload = w; seed = !seed; seconds = !seconds; trace = tr; kv_bin = !kv_bin; out_dir = !out_dir; inject = 0 }
  in
  let provenance =
    [
      ("rev", !rev);
      ("profile", !profile);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("workload", w.name);
      ("structure", w.structure);
      ("scheme", "VBR");
      ("range", string_of_int w.range);
      ("buckets", string_of_int w.buckets);
      ( "mix",
        Printf.sprintf "contains %d%% insert %d%% delete %d%%" w.mix.contains_pct w.mix.insert_pct
          w.mix.delete_pct );
      ("load", Printf.sprintf "%d domains, closed loop" Workloads.domains);
      ("seed", string_of_int !seed);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("trace", string_of_int !trace);
    ]
  in
  match Bench.run c with
  | exception e ->
      Printf.eprintf "vbrperf: run failed: %s\n" (Printexc.to_string e);
      exit 1
  | r ->
      List.iter (fun (k, v) -> Printf.printf "  %-32s %s\n" k v) provenance;
      Report.print_table ~trace:tr ~workload:w.name r;
      Obs.Sink.write_file
        (Printf.sprintf "%s/result-%s-seed%d-trace%d.json" !out_dir w.name !seed !trace)
        (Report.to_json ~trace:tr ~provenance r);
      print_endline (Report.json_line ~trace:tr r);
      exit 0
