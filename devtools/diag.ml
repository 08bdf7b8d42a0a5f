(* Consolidated debugging drivers. One executable, four subcommands:

     diag pool    — single-threaded allocator exerciser: random put/take
                    churn against one pool, then drain, printing counters.
     diag ticker  — VBR skiplist throughput ticker: 3 workers of random
                    ops, one line of stats per second for 25s.
     diag hang    — skiplist/VBR disjoint-ownership hang reproducer: runs
                    the striped writer/reader workload until progress
                    stops, then dumps every level with anomaly markers.
     diag trace   — pretty-print a lifecycle trace CSV (vbr-bench --trace):
                    per-kind and per-thread event counts plus the last N
                    events, tid-tagged, for eyeballing an execution tail.

   These are operator tools, not tests: they print to stdout and are run
   by hand while chasing a bug. *)

open Memsim

(* ------------------------------------------------------------------ *)
(* diag pool                                                          *)
(* ------------------------------------------------------------------ *)

let pool_exercise () =
  let arena = Arena.create ~capacity:1_000 in
  let global = Global_pool.create ~max_level:4 in
  let pool = Pool.create arena global ~spill:5 in
  let held = ref [] in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 2_000 do
    if Random.State.bool rng && !held <> [] then begin
      match !held with
      | s :: rest ->
          held := rest;
          Pool.put pool s
      | [] -> ()
    end
    else begin
      let lvl = 1 + Random.State.int rng 3 in
      held := Pool.take pool ~level:lvl :: !held
    end
  done;
  List.iter (Pool.put pool) !held;
  Printf.printf "allocated=%d local_free=%d global_batches=%d\n"
    (Arena.allocated arena) (Pool.local_free pool)
    (Global_pool.approx_batches global);
  let drained = ref 0 in
  for lvl = 1 to 4 do
    (try
       while true do
         ignore (Pool.take pool ~level:lvl);
         incr drained
       done
     with Arena.Exhausted -> ());
    Printf.printf "after lvl %d: drained=%d allocated=%d\n" lvl !drained
      (Arena.allocated arena)
  done

(* ------------------------------------------------------------------ *)
(* diag ticker                                                        *)
(* ------------------------------------------------------------------ *)

let ticker () =
  let arena = Arena.create ~capacity:500_000 in
  let global = Global_pool.create ~max_level:Dstruct.Skiplist.max_level in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:8 ~arena ~global ~n_threads:4 ()
  in
  let s = Dstruct.Vbr_skiplist.create vbr in
  let ops = Array.init 4 (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let worker tid =
    let st = ref (Random.State.make [| tid |]) in
    while not (Atomic.get stop) do
      let k = Random.State.int !st 24 in
      (match Random.State.int !st 3 with
      | 0 -> ignore (Dstruct.Vbr_skiplist.insert s ~tid k)
      | 1 -> ignore (Dstruct.Vbr_skiplist.delete s ~tid k)
      | _ -> ignore (Dstruct.Vbr_skiplist.contains s ~tid k));
      Atomic.incr ops.(tid)
    done
  in
  let ds = List.init 3 (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
  for sec = 1 to 25 do
    Unix.sleepf 1.0;
    let total = Array.fold_left (fun a o -> a + Atomic.get o) 0 ops in
    let st = Vbr_core.Vbr.total_stats vbr in
    Format.printf "t=%d ops=%d %a epoch=%d@." sec total Vbr_core.Vbr.pp_stats st
      (Vbr_core.Epoch.get (Vbr_core.Vbr.epoch vbr))
  done;
  Atomic.set stop true;
  List.iter Domain.join ds

(* ------------------------------------------------------------------ *)
(* diag hang                                                          *)
(* ------------------------------------------------------------------ *)

let n_writers = 3
let n_readers = 2
let n_threads = n_writers + n_readers
let stripe = 16

let hang_repro () =
  let arena = Arena.create ~capacity:500_000 in
  let global = Global_pool.create ~max_level:Dstruct.Skiplist.max_level in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:8 ~arena ~global ~n_threads ()
  in
  let s = Dstruct.Vbr_skiplist.create vbr in
  let ops = Array.init n_threads (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let writer tid =
    let base = tid * stripe in
    while not (Atomic.get stop) do
      for j = 0 to stripe - 1 do
        ignore (Dstruct.Vbr_skiplist.insert s ~tid (base + j));
        Atomic.incr ops.(tid)
      done;
      for j = 0 to stripe - 1 do
        ignore (Dstruct.Vbr_skiplist.contains s ~tid (base + j));
        Atomic.incr ops.(tid)
      done;
      for j = 0 to stripe - 1 do
        ignore (Dstruct.Vbr_skiplist.delete s ~tid (base + j));
        Atomic.incr ops.(tid)
      done
    done
  in
  let reader tid =
    while not (Atomic.get stop) do
      for k = 0 to (n_writers * stripe) + 8 do
        ignore (Dstruct.Vbr_skiplist.contains s ~tid k);
        Atomic.incr ops.(tid)
      done
    done
  in
  let _ds =
    List.init n_writers (fun t -> Domain.spawn (fun () -> writer t))
    @ List.init n_readers (fun i ->
          Domain.spawn (fun () -> reader (n_writers + i)))
  in
  (* head slot: create allocs tail=1 then head=2 *)
  let head = 2 in
  let dump () =
    Printf.printf "=== DUMP epoch=%d ===\n"
      (Vbr_core.Epoch.get (Vbr_core.Vbr.epoch vbr));
    for l = Dstruct.Skiplist.max_level - 1 downto 0 do
      let visited = Hashtbl.create 64 in
      let rec walk i steps prev_key =
        if steps > 300 then Printf.printf "  L%d: ...TRUNCATED (cycle?)\n" l
        else if Hashtbl.mem visited i then
          Printf.printf "  L%d: CYCLE back to slot %d\n" l i
        else begin
          Hashtbl.add visited i ();
          let n = Arena.get arena i in
          let w = Atomic.get (Node.word n (min l (Node.level n - 1))) in
          let tgt = Packed.index w in
          let ver = Packed.version w in
          let mk = Packed.is_marked w in
          let b = Atomic.get n.Node.birth in
          let r = Atomic.get n.Node.retire in
          let anomaly =
            if n.Node.key < prev_key then " KEY-ORDER!"
            else if
              tgt <> 0 && ver < Atomic.get (Arena.get arena tgt).Node.birth
            then " STALE-VER!"
            else ""
          in
          if l = 0 || anomaly <> "" || n.Node.key < 1000000 then
            Printf.printf
              "  L%d slot=%d key=%d b=%d r=%d %s ver=%d tgt=%d(tb=%d)%s\n" l i
              n.Node.key b r
              (if mk then "MARKED" else "ok")
              ver tgt
              (if tgt = 0 then -1
               else Atomic.get (Arena.get arena tgt).Node.birth)
              anomaly;
          if tgt <> 0 && n.Node.key < max_int then walk tgt (steps + 1) n.Node.key
        end
      in
      walk head 0 min_int
    done;
    let st = Vbr_core.Vbr.total_stats vbr in
    Format.printf "stats: %a@." Vbr_core.Vbr.pp_stats st
  in
  let last = ref (-1) in
  let frozen = ref 0 in
  (try
     for _sec = 1 to 60 do
       Unix.sleepf 1.0;
       let total = Array.fold_left (fun a o -> a + Atomic.get o) 0 ops in
       Printf.printf "t ops=%d epoch=%d\n%!" total
         (Vbr_core.Epoch.get (Vbr_core.Vbr.epoch vbr));
       if total = !last then begin
         incr frozen;
         if !frozen >= 3 then begin
           dump ();
           exit 2
         end
       end
       else frozen := 0;
       last := total
     done
   with e -> Printf.printf "exn: %s\n" (Printexc.to_string e));
  Atomic.set stop true;
  print_endline "no hang in 60s"

(* ------------------------------------------------------------------ *)
(* diag trace                                                         *)
(* ------------------------------------------------------------------ *)

let trace_tail path n =
  let d = Obs.Trace.load_csv path in
  let events = d.Obs.Trace.d_events in
  Printf.printf "%s: scheme=%s threads=%d capacity=%d dropped=%d events=%d\n"
    path d.Obs.Trace.d_scheme d.Obs.Trace.d_threads d.Obs.Trace.d_capacity
    d.Obs.Trace.d_dropped (Array.length events);
  print_endline "per kind:";
  List.iter
    (fun k ->
      let c =
        Array.fold_left
          (fun acc e -> if e.Obs.Trace.e_kind = k then acc + 1 else acc)
          0 events
      in
      if c > 0 then Printf.printf "  %-14s %8d\n" (Obs.Trace.kind_to_string k) c)
    Obs.Trace.all_kinds;
  print_endline "per thread:";
  for tid = 0 to d.Obs.Trace.d_threads - 1 do
    let c =
      Array.fold_left
        (fun acc e -> if e.Obs.Trace.e_tid = tid then acc + 1 else acc)
        0 events
    in
    Printf.printf "  tid %-3d %8d\n" tid c
  done;
  let total = Array.length events in
  let first = max 0 (total - n) in
  Printf.printf "last %d events:\n" (total - first);
  for i = first to total - 1 do
    let e = events.(i) in
    Printf.printf "  [%d] t=%dns tid=%d %-14s slot=%d v1=%d v2=%d epoch=%d\n"
      e.Obs.Trace.e_seq e.Obs.Trace.e_t_ns e.Obs.Trace.e_tid
      (Obs.Trace.kind_to_string e.Obs.Trace.e_kind)
      e.Obs.Trace.e_slot e.Obs.Trace.e_v1 e.Obs.Trace.e_v2 e.Obs.Trace.e_epoch
  done

let () =
  match Sys.argv with
  | [| _; "pool" |] -> pool_exercise ()
  | [| _; "ticker" |] -> ticker ()
  | [| _; "hang" |] -> hang_repro ()
  | [| _; "trace"; path |] -> trace_tail path 40
  | [| _; "trace"; path; n |] -> trace_tail path (int_of_string n)
  | _ ->
      prerr_endline "usage: diag {pool|ticker|hang|trace FILE [N]}";
      exit 64
