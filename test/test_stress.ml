(* Concurrent integration tests: real multi-domain executions with
   checkable invariants.

   Disjoint-ownership stress: each writer domain owns a key stripe and
   alternately inserts and deletes its own keys, so every one of its
   operations must report success; reader domains hammer [contains]
   concurrently. At the end the structure must be exactly empty. This
   catches lost updates, erroneous CAS successes (ABA), duplicate keys and
   broken reclamation under interleaving. *)

(* One base seed for the churn PRNGs, printed up front so a failing run
   can be replayed exactly: VBR_TEST_SEED=<n> dune exec ... *)
let base_seed =
  match Sys.getenv_opt "VBR_TEST_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None -> invalid_arg "VBR_TEST_SEED must be an integer")
  | None -> 0xC0FFEE

let () =
  Printf.printf "PRNG base seed: %d (override with VBR_TEST_SEED)\n%!"
    base_seed

type handle = {
  hname : string;
  insert : tid:int -> int -> bool;
  delete : tid:int -> int -> bool;
  contains : tid:int -> int -> bool;
  to_list : unit -> int list;
  stats : unit -> string;  (** the scheme's counters, for a stall dump *)
}

let vbr_stats vbr =
  Format.asprintf "%a" Vbr_core.Vbr.pp_stats (Vbr_core.Vbr.total_stats vbr)

let conservative_stats (type r) (module R : Reclaim.Smr_intf.S with type t = r)
    (r : r) =
  Obs.Counters.to_assoc (R.stats r)
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat " "

(* Progress watchdog. Every domain of a case bumps its own op counter;
   the main domain polls the counters instead of blocking in
   [Domain.join]. A running domain whose counter stands still for
   [stall_s] seconds fails the case with a dump — case name, seed,
   per-domain counters, the scheme's stats — instead of hanging the
   suite. The stalled domain cannot be joined, so it is left behind;
   the process ends with the run. A case takes seconds, so 30 s of no
   progress is a hang, not a slow host. *)
let stall_s = 30.

type progress = { ops : int Atomic.t array; finished : bool Atomic.t array }

let progress n =
  {
    ops = Memsim.Padded.atomic_array n 0;
    finished = Array.init n (fun _ -> Atomic.make false);
  }

let tick p i = Atomic.incr p.ops.(i)

(* Run [f] as domain [i] of [p]; its exception, if any, is the result. *)
let spawn p i f =
  Domain.spawn (fun () ->
      let r = try f (); None with e -> Some e in
      Atomic.set p.finished.(i) true;
      r)

let dump ~case ~stall_s ~stalled p stats =
  let counters =
    Array.to_list
      (Array.mapi
         (fun i c ->
           Printf.sprintf "d%d=%d%s" i (Atomic.get c)
             (if Atomic.get p.finished.(i) then "(done)" else ""))
         p.ops)
  in
  Printf.sprintf
    "case %s, seed %d: domain %d made no progress for %.1f s\n  ops: %s\n  stats: %s"
    case base_seed stalled stall_s
    (String.concat " " counters)
    (stats ())

exception Stalled of string

(* Wait until every domain in [ds] (pairs of index and domain) has
   finished, watching all of [p]'s unfinished domains for stalls; then
   join [ds] and return their results. *)
let await ?(stall_s = stall_s) ~case ~stats p ds =
  let n = Array.length p.ops in
  let last = Array.map Atomic.get p.ops in
  let since = Array.make n (Unix.gettimeofday ()) in
  let rec poll () =
    if not (List.for_all (fun (i, _) -> Atomic.get p.finished.(i)) ds) then begin
      Unix.sleepf (Float.min 0.05 (stall_s /. 4.));
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let v = Atomic.get p.ops.(i) in
        if v <> last.(i) then begin
          last.(i) <- v;
          since.(i) <- now
        end
        else if
          (not (Atomic.get p.finished.(i))) && now -. since.(i) > stall_s
        then raise (Stalled (dump ~case ~stall_s ~stalled:i p stats))
      done;
      poll ()
    end
  in
  poll ();
  List.map (fun (_, d) -> Domain.join d) ds

let raise_first results = List.iter (function Some e -> raise e | None -> ()) results

(* Fail the Alcotest case with the dump, printed to stderr as well so a
   CI log shows it even when the runner truncates the failure. *)
let watched f () =
  try f ()
  with Stalled msg ->
    prerr_endline ("stress watchdog: " ^ msg);
    Alcotest.fail msg

let n_writers = 3
let n_readers = 2
let n_threads = n_writers + n_readers
let stripe = 16
let rounds = 400

let make_list_conservative (module R : Reclaim.Smr_intf.S) () =
  let arena = Memsim.Arena.create ~capacity:500_000 in
  (* Poison freed keys: guarded schemes reset the key on alloc and never
     deref an unvalidated slot, so a poisoned value escaping into a
     result is a real reclamation bug. *)
  ignore (Memsim.Arena.attach_sanitizer arena Memsim.Sanitizer.Poison);
  let global = Memsim.Global_pool.create ~max_level:1 in
  let r =
    R.create ~arena ~global ~n_threads ~hazards:3 ~retire_threshold:16
      ~epoch_freq:4
  in
  let module L = Dstruct.Linked_list.Make (R) in
  let l = L.create r ~arena in
  {
    hname = L.name;
    insert = (fun ~tid k -> L.insert l ~tid k);
    delete = (fun ~tid k -> L.delete l ~tid k);
    contains = (fun ~tid k -> L.contains l ~tid k);
    to_list = (fun () -> L.to_list l);
    stats = (fun () -> conservative_stats (module R) r);
  }

let make_list_vbr () =
  let arena = Memsim.Arena.create ~capacity:500_000 in
  (* Track only: VBR readers legitimately read freed slots until the
     epoch check invalidates them, so poisoning would break the
     type-preservation invariant the algorithm relies on. *)
  ignore (Memsim.Arena.attach_sanitizer arena Memsim.Sanitizer.Track);
  let global = Memsim.Global_pool.create ~max_level:1 in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:8 ~arena ~global ~n_threads ()
  in
  let l = Dstruct.Vbr_list.create vbr in
  {
    hname = Dstruct.Vbr_list.name;
    insert = (fun ~tid k -> Dstruct.Vbr_list.insert l ~tid k);
    delete = (fun ~tid k -> Dstruct.Vbr_list.delete l ~tid k);
    contains = (fun ~tid k -> Dstruct.Vbr_list.contains l ~tid k);
    to_list = (fun () -> Dstruct.Vbr_list.to_list l);
    stats = (fun () -> vbr_stats vbr);
  }

let make_hash_conservative (module R : Reclaim.Smr_intf.S) () =
  let arena = Memsim.Arena.create ~capacity:500_000 in
  ignore (Memsim.Arena.attach_sanitizer arena Memsim.Sanitizer.Poison);
  let global = Memsim.Global_pool.create ~max_level:1 in
  let r =
    R.create ~arena ~global ~n_threads ~hazards:3 ~retire_threshold:16
      ~epoch_freq:4
  in
  let module H = Dstruct.Hash_table.Make (R) in
  let h = H.create r ~arena ~buckets:16 in
  {
    hname = H.name;
    insert = (fun ~tid k -> H.insert h ~tid k);
    delete = (fun ~tid k -> H.delete h ~tid k);
    contains = (fun ~tid k -> H.contains h ~tid k);
    to_list = (fun () -> H.to_list h);
    stats = (fun () -> conservative_stats (module R) r);
  }

let make_hash_vbr () =
  let arena = Memsim.Arena.create ~capacity:500_000 in
  ignore (Memsim.Arena.attach_sanitizer arena Memsim.Sanitizer.Track);
  let global = Memsim.Global_pool.create ~max_level:1 in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:8 ~arena ~global ~n_threads ()
  in
  let h = Dstruct.Vbr_hash.create vbr ~buckets:16 in
  {
    hname = Dstruct.Vbr_hash.name;
    insert = (fun ~tid k -> Dstruct.Vbr_hash.insert h ~tid k);
    delete = (fun ~tid k -> Dstruct.Vbr_hash.delete h ~tid k);
    contains = (fun ~tid k -> Dstruct.Vbr_hash.contains h ~tid k);
    to_list = (fun () -> Dstruct.Vbr_hash.to_list h);
    stats = (fun () -> vbr_stats vbr);
  }

let make_skip_conservative (module R : Reclaim.Smr_intf.S) () =
  let arena = Memsim.Arena.create ~capacity:500_000 in
  ignore (Memsim.Arena.attach_sanitizer arena Memsim.Sanitizer.Poison);
  let global = Memsim.Global_pool.create ~max_level:Dstruct.Skiplist.max_level in
  let r =
    R.create ~arena ~global ~n_threads
      ~hazards:((2 * Dstruct.Skiplist.max_level) + 2)
      ~retire_threshold:16 ~epoch_freq:4
  in
  let module S = Dstruct.Skiplist.Make (R) in
  let s = S.create r ~arena in
  {
    hname = S.name;
    insert = (fun ~tid k -> S.insert s ~tid k);
    delete = (fun ~tid k -> S.delete s ~tid k);
    contains = (fun ~tid k -> S.contains s ~tid k);
    to_list = (fun () -> S.to_list s);
    stats = (fun () -> conservative_stats (module R) r);
  }

let make_skip_vbr () =
  let arena = Memsim.Arena.create ~capacity:500_000 in
  ignore (Memsim.Arena.attach_sanitizer arena Memsim.Sanitizer.Track);
  let global = Memsim.Global_pool.create ~max_level:Dstruct.Skiplist.max_level in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:8 ~arena ~global ~n_threads ()
  in
  let s = Dstruct.Vbr_skiplist.create vbr in
  {
    hname = Dstruct.Vbr_skiplist.name;
    insert = (fun ~tid k -> Dstruct.Vbr_skiplist.insert s ~tid k);
    delete = (fun ~tid k -> Dstruct.Vbr_skiplist.delete s ~tid k);
    contains = (fun ~tid k -> Dstruct.Vbr_skiplist.contains s ~tid k);
    to_list = (fun () -> Dstruct.Vbr_skiplist.to_list s);
    stats = (fun () -> vbr_stats vbr);
  }

exception Violation of string

let writer h p ~tid =
  let base = tid * stripe in
  for round = 1 to rounds do
    for j = 0 to stripe - 1 do
      let k = base + j in
      if not (h.insert ~tid k) then
        raise
          (Violation (Printf.sprintf "tid %d round %d: insert %d failed" tid round k));
      tick p tid
    done;
    for j = 0 to stripe - 1 do
      let k = base + j in
      if not (h.contains ~tid k) then
        raise
          (Violation
             (Printf.sprintf "tid %d round %d: own key %d not found" tid round k));
      tick p tid
    done;
    for j = 0 to stripe - 1 do
      let k = base + j in
      if not (h.delete ~tid k) then
        raise
          (Violation (Printf.sprintf "tid %d round %d: delete %d failed" tid round k));
      tick p tid
    done
  done

let reader h p ~tid stop =
  (* Readers may see any subset of live keys; they only check for crashes
     and for keys outside the writers' universe. *)
  let seen_garbage = ref None in
  while not (Atomic.get stop) do
    for k = 0 to (n_writers * stripe) + 8 do
      let present = h.contains ~tid k in
      if present && k >= n_writers * stripe then
        seen_garbage := Some k;
      tick p tid
    done
  done;
  match !seen_garbage with
  | Some k -> raise (Violation (Printf.sprintf "phantom key %d observed" k))
  | None -> ()

let run_stress mk () =
  let h = mk () in
  let case = h.hname ^ " disjoint-ownership stress" in
  let p = progress n_threads in
  let stop = Atomic.make false in
  let readers =
    List.init n_readers (fun i ->
        let tid = n_writers + i in
        (tid, spawn p tid (fun () -> reader h p ~tid stop)))
  in
  let writers =
    List.init n_writers (fun tid -> (tid, spawn p tid (fun () -> writer h p ~tid)))
  in
  (* On a stall the readers are stopped too, so only the stalled
     domain is left behind. *)
  let writer_results =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> await ~case ~stats:h.stats p writers)
  in
  let reader_results = await ~case ~stats:h.stats p readers in
  raise_first writer_results;
  raise_first reader_results;
  Alcotest.(check (list int)) "empty at end" [] (h.to_list ())

(* Churn stress: all writers fight over the SAME small key range, so
   every interleaving hazard (competing marks, competing unlinks, failed
   inserts retiring fresh nodes, heavy recycling) is exercised. The final
   content must equal the union of keys whose last op (per a happens-after
   reconciliation we can't observe) — so we only check structural sanity:
   sorted, duplicate-free, within range. *)
let run_churn mk () =
  let h = mk () in
  let range = 24 in
  let p = progress n_threads in
  let workers =
    List.init n_threads (fun tid ->
        ( tid,
          spawn p tid (fun () ->
              let st = ref (Random.State.make [| tid; base_seed |]) in
              for _ = 1 to rounds * 10 do
                let k = Random.State.int !st range in
                (match Random.State.int !st 3 with
                | 0 -> ignore (h.insert ~tid k)
                | 1 -> ignore (h.delete ~tid k)
                | _ -> ignore (h.contains ~tid k));
                tick p tid
              done) ))
  in
  raise_first (await ~case:(h.hname ^ " same-range churn") ~stats:h.stats p workers);
  let l = h.to_list () in
  let sorted_unique = List.sort_uniq compare l in
  Alcotest.(check (list int)) "sorted and duplicate-free" sorted_unique l;
  List.iter
    (fun k ->
      if k < 0 || k >= range then
        Alcotest.failf "key %d out of range in final state" k)
    l

(* The watchdog itself: domain 1 makes progress and then blocks until
   released, so its counter stands still. [await] must raise [Stalled]
   with a dump naming the case, the seed and both counters, well before
   the default window. The blocked domain is then released and joined. *)
let test_watchdog () =
  let p = progress 2 in
  let release = Atomic.make false in
  let quick = spawn p 0 (fun () -> for _ = 1 to 5 do tick p 0 done) in
  let stuck =
    spawn p 1 (fun () ->
        for _ = 1 to 7 do tick p 1 done;
        while not (Atomic.get release) do Domain.cpu_relax () done)
  in
  let msg =
    match
      await ~stall_s:0.2 ~case:"fake/stall" ~stats:(fun () -> "stats-here") p
        [ (0, quick); (1, stuck) ]
    with
    | _ -> Alcotest.fail "a stalled domain went unnoticed"
    | exception Stalled msg -> msg
  in
  Atomic.set release true;
  raise_first [ Domain.join quick; Domain.join stuck ];
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "dump mentions %S" sub) true (at 0)
  in
  List.iter has
    [
      "fake/stall";
      Printf.sprintf "seed %d" base_seed;
      "domain 1 made no progress";
      "d0=5(done)";
      "d1=7";
      "stats-here";
    ]

let variants =
  [
    ("list/NoRecl", make_list_conservative (module Reclaim.No_recl));
    ("list/EBR", make_list_conservative (module Reclaim.Ebr));
    ("list/HP", make_list_conservative (module Reclaim.Hp));
    ("list/HE", make_list_conservative (module Reclaim.He));
    ("list/IBR", make_list_conservative (module Reclaim.Ibr));
    ("list/VBR", make_list_vbr);
    ("hash/NoRecl", make_hash_conservative (module Reclaim.No_recl));
    ("hash/EBR", make_hash_conservative (module Reclaim.Ebr));
    ("hash/HP", make_hash_conservative (module Reclaim.Hp));
    ("hash/HE", make_hash_conservative (module Reclaim.He));
    ("hash/IBR", make_hash_conservative (module Reclaim.Ibr));
    ("hash/VBR", make_hash_vbr);
    ("skiplist/NoRecl", make_skip_conservative (module Reclaim.No_recl));
    ("skiplist/EBR", make_skip_conservative (module Reclaim.Ebr));
    ("skiplist/HP", make_skip_conservative (module Reclaim.Hp));
    ("skiplist/HE", make_skip_conservative (module Reclaim.He));
    ("skiplist/IBR", make_skip_conservative (module Reclaim.Ibr));
    ("skiplist/VBR", make_skip_vbr);
  ]

let () =
  let suites =
    List.map
      (fun (vname, mk) ->
        ( vname,
          [
            Alcotest.test_case "disjoint-ownership stress" `Slow
              (watched (run_stress mk));
            Alcotest.test_case "same-range churn" `Slow (watched (run_churn mk));
          ] ))
      variants
  in
  Alcotest.run "stress"
    (("watchdog", [ Alcotest.test_case "stall is reported" `Quick test_watchdog ])
    :: suites)
