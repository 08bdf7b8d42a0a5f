(* The benchmark's workloads. Every one runs hash/VBR or list/VBR (the
   paper's scheme, vbr-kv's default) in-process, with two worker domains
   in a closed loop: two busy threads of load. *)

type t = {
  name : string;
  structure : string;  (** a [Harness.Registry] structure: "hash" or "list" *)
  range : int;
  buckets : int;
  mix : Opstream.mix;
  setups : int;  (** set-ups per measured segment; [setup_s] is the median over the run *)
  ladder_ops : int;  (** op-stream prefix replayed on each ladder rung *)
}

(* Load-generating worker domains: two busy threads of load, sized for a
   2-CPU host. *)
let domains = 2

(* Requests per pipelined batch of the traced run's served rung. *)
let depth = 8

let read_heavy = { Opstream.contains_pct = 90; insert_pct = 5; delete_pct = 5 }
let half_update = { Opstream.contains_pct = 50; insert_pct = 25; delete_pct = 25 }

let all =
  [
    (* Short cache-resident ops: fixed per-op costs (dispatch, checkpoint, key generation) dominate. *)
    {
      name = "hash-read";
      structure = "hash";
      range = 16384;
      buckets = 16384;
      mix = read_heavy;
      setups = 4;
      ladder_ops = 200_000;
    };
    (* Working set far beyond L2: dereference misses and the alloc/retire/epoch path dominate. *)
    {
      name = "hash-large";
      structure = "hash";
      range = 1 lsl 20;
      buckets = 1 lsl 20;
      mix = half_update;
      setups = 1;
      ladder_ops = 100_000;
    };
    (* Long cache-resident walks: VBR's validated per-hop read and node layout dominate; rollbacks show.
       Runnable but not in BENCHMARK.json: the Vbr_list lost-insert bug
       (ROADMAP item 1) fails about half of its runs. *)
    {
      name = "list-balanced";
      structure = "list";
      range = 1024;
      buckets = 1;
      mix = half_update;
      setups = 6;
      ladder_ops = 20_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Arena slots: every sentinel, every key live at once, and headroom for
   nodes parked on retired lists and pools (the vbr-kv auto sizing). *)
let capacity w = min (w.buckets + 2 + w.range + 400_000) Memsim.Packed.max_index

(* A domain (or the served rung's connection) whose op counter stands
   still this long is declared hung. *)
let stall_s = 10.

(* How long one set-up (build + prefill, or a vbr-kv start-up) may take:
   several times what it takes on a 2-CPU host (prefilling 2^20 keys
   takes about 1.5 s). *)
let setup_limit_s w = 2. +. (1e-5 *. float_of_int w.range)
