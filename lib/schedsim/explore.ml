(* The scenario table and the explore/replay drivers on top of Sched.

   A scenario is a named, fully deterministic workload: given a decision
   string, a tail policy and a scheduler mode it builds a fresh instance,
   runs the bodies under the virtual scheduler, and post-checks the run
   (linearizability, sanitizer, trace invariants, robustness bounds).
   Determinism is what makes tokens work — a failure found by
   exploration replays bit for bit from [outcome.recorded] in the same
   mode, and ddmin can shrink it by replaying candidates.

   Three scenario families:
   - lin-<structure>-<scheme>: three threads over a small key range with
     Strict sanitization, a lifecycle trace, and a Wing–Gong
     linearizability check over virtually-timestamped histories.
   - robust-<scheme>-<structure>: the paper's §1/§5.3 descheduled-thread
     experiment, made deterministic: a reader stalled forever mid-search
     while two writers churn. Asserts EBR's unreclaimed count grows
     linearly while HP/HE/IBR/VBR keep reclaiming.
   - pool-steal: the sharded global pool's push/pop/steal CAS loops
     driven through Memsim.Access, post-checked for slot conservation.
   - seeded bugs (aba-immediate-free, late-guard, double-retire): known
     broken protocols whose failing interleavings the explorer must be
     able to find; their shrunk tokens are the test/sched_fixtures/
     corpus.

   Exploration is coverage-guided (DESIGN.md §2.16): every execution
   yields a canonical signature and a choice-prefix trail (Coverage);
   decision strings that reached never-seen territory enter a small
   corpus and get mutated at their novelty point, which walks the
   schedule space far faster than uniform random tails. Sleep-set
   pruning (Sched.Dpor) is on by default and skips whole equivalence
   classes of schedules per execution. *)

open Memsim

type failure = { cls : string; detail : string }

type report = {
  scenario : string;
  tail : Sched.tail;
  mode : Sched.mode;
  outcome : Sched.outcome;
  failure : failure option;
}

type scenario = {
  s_name : string;
  s_tail : Sched.tail;
  s_max_len : int;
  s_threads : int;
  s_quota : int;
  s_expect_bug : bool;
      (* seeded-bug scenarios: exploration is EXPECTED to find a failing
         schedule; not finding one means the explorer lost its teeth *)
  s_exec :
    decisions:int array ->
    tail:Sched.tail ->
    mode:Sched.mode ->
    coverage:Coverage.t option ->
    report;
}

(* Step quotas are per thread, not per scenario: a 3-thread workload
   legitimately takes ~3× the slices of a 2-thread one, and a
   scenario-global number either starves the big scenarios or lets a
   2-thread livelock burn a 3-thread allowance. Robust scenarios get a
   larger per-thread allowance — their writers churn 40 rounds × 8 keys
   through full retire/scan cycles. *)
let quota_std = 400_000
let quota_robust = 700_000

(* Failure classes are part of the fixture format (sched_fixtures files
   name the class they expect), so keep them short and stable. *)
let classify = function
  | Sanitizer.Violation m -> { cls = "sanitizer"; detail = m }
  | Harness.Lin.Non_linearizable m -> { cls = "lin"; detail = m }
  | Sched.Quota_exceeded n ->
      { cls = "quota"; detail = Printf.sprintf "exceeded %d steps" n }
  | e -> { cls = "exn"; detail = Printexc.to_string e }

let report ~name ~tail ~mode ~outcome failure =
  let failure =
    match failure with
    | Some _ as f -> f
    | None -> Option.map classify outcome.Sched.error
  in
  { scenario = name; tail; mode; outcome; failure }

(* ---------- lin-<structure>-<scheme> ---------- *)

(* Fixed per-thread scripts over keys 0..7 (the structure is
   pre-populated with {1,3,5} before the scheduler starts). Small enough
   that the Wing–Gong search is instant, contended enough that insert /
   delete / contains races on the same keys are common. *)
let lin_script tid =
  match tid with
  | 0 -> [ `I 2; `D 1; `C 3; `I 5; `D 2 ]
  | 1 -> [ `D 3; `I 1; `C 2; `D 5; `I 3 ]
  | _ -> [ `C 1; `I 3; `D 2; `C 5; `D 1 ]

let lin_prepopulated = [ 1; 3; 5 ]
let lin_threads = 3

let lin_exec ~structure ~scheme ~name ~decisions ~tail ~mode ~coverage =
  let n_threads = lin_threads in
  let trace =
    Obs.Trace.create ~capacity:(1 lsl 12) ~n_threads ~scheme ()
  in
  let inst =
    Harness.Registry.make ~structure ~scheme ~n_threads ~range:8
      ~capacity:4096 ~retire_threshold:4 ~epoch_freq:2 ~trace
      ~sanitizer:Sanitizer.Strict ()
  in
  (* Quiescent pre-population (no hook installed yet, so these take no
     scheduling decisions); recorded as a strictly-earlier prefix of
     thread 0's history via negative timestamps. *)
  let prefix =
    List.mapi
      (fun j k ->
        let ok = inst.Harness.Registry.insert ~tid:0 k in
        {
          Harness.Lin.op = Harness.Lin.Insert k;
          result = ok;
          inv = float_of_int ((2 * j) - 2 * List.length lin_prepopulated);
          res = float_of_int ((2 * j) + 1 - (2 * List.length lin_prepopulated));
        })
      lin_prepopulated
  in
  let histories = Array.make n_threads [||] in
  let body tid () =
    let events = ref [] in
    List.iter
      (fun step ->
        let inv = Sched.now () in
        let op, result =
          match step with
          | `I k -> (Harness.Lin.Insert k, inst.Harness.Registry.insert ~tid k)
          | `D k -> (Harness.Lin.Delete k, inst.Harness.Registry.delete ~tid k)
          | `C k ->
              (Harness.Lin.Contains k, inst.Harness.Registry.contains ~tid k)
        in
        events := { Harness.Lin.op; result; inv; res = Sched.now () } :: !events)
      (lin_script tid);
    histories.(tid) <- Array.of_list (List.rev !events)
  in
  let outcome =
    Sched.run ~decisions ~tail ~mode ?coverage ~trace
      ~max_steps:(n_threads * quota_std)
      (Array.init n_threads body)
  in
  let failure =
    if outcome.Sched.error <> None then None
    else begin
      (* All bodies completed: check the history, then the trace. *)
      histories.(0) <- Array.append (Array.of_list prefix) histories.(0);
      match Harness.Lin.check_exn histories with
      | () -> (
          let d = Obs.Trace.dump trace in
          match (Trace_check.check ~file:name d).Trace_check.findings with
          | [] -> None
          | f :: _ ->
              Some { cls = "trace"; detail = Lint_core.Finding.to_string f })
      | exception Harness.Lin.Non_linearizable m ->
          Some { cls = "lin"; detail = m }
    end
  in
  report ~name ~tail ~mode ~outcome failure

(* ---------- robust-<scheme>-<structure> ---------- *)

(* The §1 experiment as a deterministic assertion. Thread 2 is a reader
   descheduled forever a few yield points into a [contains] — after its
   scheme's protection (epoch announce, hazard, era) is published but
   before the operation completes. Threads 0 and 1 then churn disjoint
   key stripes. Under EBR the frozen announce pins the reclamation
   horizon and unreclaimed grows with every round; HP/HE/IBR pin at most
   the nodes the stalled reader could still reach, and VBR pins nothing.

   The bound is shared: EBR must end ABOVE it, everyone else BELOW it,
   and the non-EBR schemes must also still be making progress in the
   second half of the run (freed strictly increases after the midpoint). *)
let robust_rounds = 40
let robust_stripe = 8
let robust_bound = robust_rounds * 4
let robust_threads = 3

let robust_exec ~structure ~scheme ~name ~decisions ~tail ~mode ~coverage =
  let n_threads = robust_threads in
  let inst =
    Harness.Registry.make ~structure ~scheme ~n_threads ~range:64
      ~capacity:(1 lsl 15) ~retire_threshold:8 ~epoch_freq:4
      ~sanitizer:Sanitizer.Track ()
  in
  for k = 0 to 15 do
    ignore (inst.Harness.Registry.insert ~tid:0 k)
  done;
  let freed_at stats = Obs.Counters.get (stats ()) Obs.Event.Reclaim in
  let samples = Array.make robust_rounds 0 in
  let writer tid () =
    let base = 16 + (tid * robust_stripe) in
    for r = 1 to robust_rounds do
      for j = 0 to robust_stripe - 1 do
        ignore (inst.Harness.Registry.insert ~tid (base + j))
      done;
      for j = 0 to robust_stripe - 1 do
        ignore (inst.Harness.Registry.delete ~tid (base + j))
      done;
      if tid = 0 then
        samples.(r - 1) <- freed_at inst.Harness.Registry.stats
    done
  in
  let reader () =
    (* A single search for the deepest pre-populated key: the walk is
       long enough that the fault lands mid-traversal, protection
       published. *)
    ignore (inst.Harness.Registry.contains ~tid:2 15)
  in
  let bodies = [| writer 0; writer 1; reader |] in
  let fault =
    { Sched.victim = 2; after_yields = 12; for_steps = Sched.forever }
  in
  let outcome =
    Sched.run ~decisions ~tail ~mode ?coverage ~fault
      ~max_steps:(n_threads * quota_robust) bodies
  in
  let failure =
    if outcome.Sched.error <> None then None
    else begin
      let unreclaimed = inst.Harness.Registry.unreclaimed () in
      let fail detail = Some { cls = "robustness"; detail } in
      if scheme = "EBR" then
        if unreclaimed < robust_bound then
          fail
            (Printf.sprintf
               "EBR unreclaimed %d stayed below the linear bound %d: the \
                stalled reader failed to pin the epoch horizon"
               unreclaimed robust_bound)
        else None
      else if unreclaimed > robust_bound then
        fail
          (Printf.sprintf
             "%s unreclaimed %d exceeded the bound %d under a stalled reader"
             scheme unreclaimed robust_bound)
      else
        let mid = samples.((robust_rounds / 2) - 1) in
        let last = samples.(robust_rounds - 1) in
        if not (last > mid && last > 0) then
          fail
            (Printf.sprintf
               "%s stopped reclaiming under a stalled reader: freed %d at \
                round %d, still %d at round %d"
               scheme mid (robust_rounds / 2) last robust_rounds)
        else None
    end
  in
  report ~name ~tail ~mode ~outcome failure

(* ---------- pool-steal ---------- *)

(* The sharded global pool under adversarial interleavings: its
   push/pop/steal CAS loops all go through Memsim.Access, so the virtual
   scheduler can park a thread between the head read and the CAS — the
   window where a lost update or double-pop would hide. Two producers
   feed their own shards while a thief, whose own shard is never fed,
   pops concurrently (every hit is a cross-shard steal). Post-check:
   thief loot + own-shard pops + a quiescent drain must be exactly the
   pushed set, and the resident count must return to zero. *)
let pool_steal_batches = 6
let pool_steal_threads = 3

let pool_steal_exec ~name ~decisions ~tail ~mode ~coverage =
  let g = Global_pool.create ~max_level:1 in
  let n = pool_steal_batches in
  let popped = Array.make 3 [] in
  let body tid () =
    if tid < 2 then begin
      for b = 0 to n - 1 do
        Global_pool.push_batch g ~shard:((4 * tid) + 1) ~level:1
          [ (tid * n) + b ]
      done;
      for _ = 1 to 2 do
        match
          Global_pool.pop_batch g ~shard:((4 * tid) + 1) ~level:1
        with
        | Some b -> popped.(tid) <- b @ popped.(tid)
        | None -> ()
      done
    end
    else
      for probe = 0 to 3 do
        match Global_pool.pop_batch g ~shard:6 ~probe ~level:1 with
        | Some b -> popped.(2) <- b @ popped.(2)
        | None -> ()
      done
  in
  let outcome =
    Sched.run ~decisions ~tail ~mode ?coverage
      ~max_steps:(pool_steal_threads * quota_std)
      (Array.init 3 body)
  in
  let failure =
    if outcome.Sched.error <> None then None
    else begin
      let rec drain acc =
        match Global_pool.pop_batch g ~level:1 with
        | Some b -> drain (b @ acc)
        | None -> acc
      in
      let all = drain (popped.(0) @ popped.(1) @ popped.(2)) in
      if List.sort compare all <> List.init (2 * n) Fun.id then
        Some
          {
            cls = "conservation";
            detail =
              Printf.sprintf
                "recovered %d slots of %d pushed (loss or duplication)"
                (List.length all) (2 * n);
          }
      else if Global_pool.approx_batches g <> 0 then
        Some
          {
            cls = "conservation";
            detail = "resident batch count nonzero after a full drain";
          }
      else None
    end
  in
  report ~name ~tail ~mode ~outcome failure

(* ---------- seeded bugs ---------- *)

(* A reader repeatedly walks to the far end of a small list while two
   threads churn the keys in the middle of its path. Under a broken
   scheme a specific interleaving has the reader dereference a freed
   slot — Sanitizer Strict fault — or see a reincarnated node. *)
let faulty_exec (module R : Reclaim.Smr_intf.GUARDED) ~name ~decisions ~tail
    ~mode ~coverage =
  let arena = Arena.create ~capacity:4096 in
  ignore (Arena.attach_sanitizer arena Sanitizer.Strict);
  let global = Global_pool.create ~max_level:1 in
  let r =
    R.create ~arena ~global ~n_threads:3 ~hazards:3 ~retire_threshold:2
      ~epoch_freq:1
  in
  let module L = Dstruct.Linked_list.Make (R) in
  let l = L.create r ~arena in
  List.iter (fun k -> ignore (L.insert l ~tid:0 k)) [ 1; 2; 3; 4; 5 ];
  let body tid () =
    match tid with
    | 0 ->
        for _ = 1 to 3 do
          ignore (L.delete l ~tid:0 3);
          ignore (L.insert l ~tid:0 3)
        done
    | 1 ->
        for _ = 1 to 3 do
          ignore (L.contains l ~tid:1 5)
        done
    | _ ->
        for _ = 1 to 3 do
          ignore (L.delete l ~tid:2 4);
          ignore (L.insert l ~tid:2 4)
        done
  in
  let outcome =
    Sched.run ~decisions ~tail ~mode ?coverage ~max_steps:(3 * quota_std)
      (Array.init 3 body)
  in
  report ~name ~tail ~mode ~outcome None

(* The late-guard window is one yield wide: between a protect's edge
   read and its (too late) hazard store. A churner that also inserts
   would mask the bug — the freed slot is immediately reused, so the
   parked reader resumes onto a live reincarnation and Strict sees
   nothing. A delete-only churner leaves the freed slots dead: a reader
   parked in the window dereferences one on resume. *)
let late_guard_exec ~name ~decisions ~tail ~mode ~coverage =
  let arena = Arena.create ~capacity:4096 in
  ignore (Arena.attach_sanitizer arena Sanitizer.Strict);
  let global = Global_pool.create ~max_level:1 in
  (* retire_threshold 1: every retire scans immediately. HP's amortized
     scan cadence would otherwise skip the scan on some retires and
     narrow the window this scenario exists to expose. *)
  let r =
    Faulty.Late_guard.create ~arena ~global ~n_threads:2 ~hazards:3
      ~retire_threshold:1 ~epoch_freq:1
  in
  let module L = Dstruct.Linked_list.Make (Faulty.Late_guard) in
  let l = L.create r ~arena in
  List.iter (fun k -> ignore (L.insert l ~tid:0 k)) [ 1; 2; 3; 4; 5 ];
  let deleter () =
    List.iter (fun k -> ignore (L.delete l ~tid:0 k)) [ 2; 3; 4 ]
  in
  let reader () =
    for _ = 1 to 3 do
      ignore (L.contains l ~tid:1 5)
    done
  in
  let outcome =
    Sched.run ~decisions ~tail ~mode ?coverage ~max_steps:(2 * quota_std)
      [| deleter; reader |]
  in
  report ~name ~tail ~mode ~outcome None

(* A check-then-act race on an unsynchronised claim flag: both threads
   can observe it unclaimed and retire the same slot. With a threshold
   of 1 each retire scans immediately, so the second free is a Track
   double-free Violation. Sequential schedules never fail — only the
   interleaving where both reads precede both writes does. *)
let double_retire_exec ~name ~decisions ~tail ~mode ~coverage =
  let arena = Arena.create ~capacity:64 in
  ignore (Arena.attach_sanitizer arena Sanitizer.Track);
  let global = Global_pool.create ~max_level:1 in
  let r =
    Reclaim.Ebr.create ~arena ~global ~n_threads:2 ~hazards:1
      ~retire_threshold:1 ~epoch_freq:1
  in
  let slot = Reclaim.Ebr.alloc r ~tid:0 ~level:1 ~key:7 in
  let claimed = Atomic.make 0 in
  let body tid () =
    if Access.get claimed = 0 then begin
      Access.set claimed 1;
      Reclaim.Ebr.retire r ~tid slot
    end
  in
  let outcome =
    Sched.run ~decisions ~tail ~mode ?coverage ~max_steps:(2 * quota_std)
      (Array.init 2 body)
  in
  report ~name ~tail ~mode ~outcome None

(* ---------- the table ---------- *)

let lin_structures = [ "list"; "skiplist" ]
let robust_schemes = [ "EBR"; "HP"; "HE"; "IBR"; "VBR" ]

let table =
  List.concat_map
    (fun structure ->
      List.map
        (fun scheme ->
          let name = Printf.sprintf "lin-%s-%s" structure scheme in
          {
            s_name = name;
            s_tail = Sched.First;
            s_max_len = 96;
            s_threads = lin_threads;
            s_quota = lin_threads * quota_std;
            s_expect_bug = false;
            s_exec = lin_exec ~structure ~scheme ~name;
          })
        Harness.Registry.schemes)
    lin_structures
  @ List.concat_map
      (fun structure ->
        List.map
          (fun scheme ->
            let name = Printf.sprintf "robust-%s-%s" scheme structure in
            {
              s_name = name;
              s_tail = Sched.Round_robin;
              s_max_len = 32;
              s_threads = robust_threads;
              s_quota = robust_threads * quota_robust;
              s_expect_bug = false;
              s_exec = robust_exec ~structure ~scheme ~name;
            })
          robust_schemes)
      lin_structures
  @ [
      {
        s_name = "pool-steal";
        s_tail = Sched.Round_robin;
        s_max_len = 64;
        s_threads = pool_steal_threads;
        s_quota = pool_steal_threads * quota_std;
        s_expect_bug = false;
        s_exec = pool_steal_exec ~name:"pool-steal";
      };
      {
        s_name = "aba-immediate-free";
        s_tail = Sched.First;
        s_max_len = 96;
        s_threads = 3;
        s_quota = 3 * quota_std;
        s_expect_bug = true;
        s_exec =
          faulty_exec (module Faulty.Immediate_free) ~name:"aba-immediate-free";
      };
      {
        s_name = "late-guard";
        s_tail = Sched.First;
        s_max_len = 48;
        s_threads = 2;
        s_quota = 2 * quota_std;
        s_expect_bug = true;
        s_exec = late_guard_exec ~name:"late-guard";
      };
      {
        s_name = "double-retire";
        s_tail = Sched.First;
        s_max_len = 8;
        s_threads = 2;
        s_quota = 2 * quota_std;
        s_expect_bug = true;
        s_exec = double_retire_exec ~name:"double-retire";
      };
    ]

let scenarios = List.map (fun s -> s.s_name) table
let seeded_bugs =
  List.filter_map (fun s -> if s.s_expect_bug then Some s.s_name else None) table

let find name =
  match List.find_opt (fun s -> s.s_name = name) table with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Explore: unknown scenario %S (try: %s)" name
           (String.concat ", " scenarios))

type spec = {
  sp_name : string;
  sp_tail : Sched.tail;
  sp_max_len : int;
  sp_threads : int;
  sp_quota : int;
  sp_expect_bug : bool;
}

let spec name =
  let s = find name in
  {
    sp_name = s.s_name;
    sp_tail = s.s_tail;
    sp_max_len = s.s_max_len;
    sp_threads = s.s_threads;
    sp_quota = s.s_quota;
    sp_expect_bug = s.s_expect_bug;
  }

let run_scenario ?(decisions = [||]) ?tail ?(mode = Sched.Plain) ?coverage name
    =
  let s = find name in
  let tail = Option.value tail ~default:s.s_tail in
  s.s_exec ~decisions ~tail ~mode ~coverage

let replay token =
  let name, tail, mode, decisions = Token.decode token in
  run_scenario ~decisions ~tail ~mode name

(* ---------- exploration ---------- *)

type stats = {
  st_execs : int;
  st_distinct : int;
  st_pruned : int;
  st_resets : int;
  st_secs : float;
}

type found = {
  f_token : string;
  f_shrunk : string;
  f_failure : failure;
  f_attempt : int;
  f_stats : stats;
}

type explored = Clean of stats | Found of found

let token_of s ~tail ~mode decisions =
  Token.encode ~scenario:s.s_name ~tail ~mode decisions

let shrink_failure s ~tail ~mode ~cls decisions =
  let fails cand =
    match (s.s_exec ~decisions:cand ~tail ~mode ~coverage:None).failure with
    | Some f -> f.cls = cls
    | None -> false
  in
  Shrink.ddmin fails decisions

let shrink ~scenario ~tail ~mode ~cls decisions =
  shrink_failure (find scenario) ~tail ~mode ~cls decisions

(* The guided search loop. Shared by [explore] and the fleet workers
   (which run it one execution at a time against a shared visited set);
   here the state is all local.

   Each execution contributes:
   - its canonical signature to the visited-signature set ("distinct
     states");
   - its choice-prefix trail to the visited-prefix set; the first index
     whose prefix was never seen is the execution's novelty point.
   An execution that produced a fresh signature AND has a reachable
   novelty point enters the corpus (recorded schedule + novelty index).
   Candidate generation interleaves fresh random strings (1 in 3) with
   mutants of random corpus entries, so the search never fixates. *)

let corpus_cap = 64

type search = {
  sigs : (int, unit) Hashtbl.t;
  prefixes : (int, unit) Hashtbl.t;
  mutable corpus : Coverage.entry list;
  mutable n_corpus : int;
}

let make_search () =
  {
    sigs = Hashtbl.create 1024;
    prefixes = Hashtbl.create 4096;
    corpus = [];
    n_corpus = 0;
  }

let explore ?(seed = 0) ?(budget = 200) ?max_len ?(guided = true)
    ?(mode = Sched.Dpor) ~scenario () =
  let s = find scenario in
  (* Seeded-bug scenarios exist to prove the explorer still has teeth, and
     their workloads are tiny, so spend more schedules on them than on the
     (clean, much heavier) linearizability/robustness sweeps sharing the
     same budget knob. The late-guard window in particular became rarer
     when the sharded global pool lengthened the allocation prefix. *)
  let budget = if s.s_expect_bug then budget * 8 else budget in
  let max_len = Option.value max_len ~default:s.s_max_len in
  let rng = Harness.Rng.create ~seed in
  let st = make_search () in
  let pruned = ref 0 in
  let resets = ref 0 in
  let t0 = Obs.Clock.now_s () in
  let stats execs =
    {
      st_execs = execs;
      st_distinct = Hashtbl.length st.sigs;
      st_pruned = !pruned;
      st_resets = !resets;
      st_secs = Obs.Clock.now_s () -. t0;
    }
  in
  (* Guided generation mixes three sources — fine-grained uniform
     strings, run-structured strings, and mutants of corpus entries at
     their novelty point — so the search dominates either pure baseline:
     uniform excels where productive schedules alternate every access
     (pool-steal's CAS races), run-structure where they need long
     exclusive stretches (the late-guard window under pruning). *)
  let pick_decisions i =
    if not guided then Coverage.uniform rng ~max_len
    else if st.n_corpus = 0 then
      if i land 1 = 0 then Coverage.random rng ~max_len
      else Coverage.uniform rng ~max_len
    else
      match i mod 4 with
      | 0 -> Coverage.uniform rng ~max_len
      | 1 -> Coverage.random rng ~max_len
      | _ ->
          let e = List.nth st.corpus (Harness.Rng.below rng st.n_corpus) in
          Coverage.mutate rng e ~max_len
  in
  let rec attempt i =
    if i > budget then Clean (stats budget)
    else begin
      let decisions = pick_decisions i in
      let cov = Coverage.create ~n_threads:s.s_threads in
      let r = s.s_exec ~decisions ~tail:s.s_tail ~mode ~coverage:(Some cov) in
      pruned := !pruned + r.outcome.Sched.pruned;
      resets := !resets + r.outcome.Sched.resets;
      (* Note coverage before branching on failure so Found stats include
         the failing run itself. *)
      let sg = Coverage.signature cov in
      let fresh_sig = not (Hashtbl.mem st.sigs sg) in
      if fresh_sig then Hashtbl.add st.sigs sg ();
      let trail = Coverage.trail cov in
      let novel = ref (-1) in
      Array.iteri
        (fun j h ->
          if not (Hashtbl.mem st.prefixes h) then begin
            if !novel < 0 then novel := j;
            Hashtbl.add st.prefixes h ()
          end)
        trail;
      (match r.failure with
      | Some _ -> ()
      | None ->
          if guided && fresh_sig && !novel >= 0 && !novel < 2 * max_len then begin
            let recorded = r.outcome.Sched.recorded in
            let cap = min (Array.length recorded) (2 * max_len) in
            let entry =
              { Coverage.e_dec = Array.sub recorded 0 cap; e_novel = !novel }
            in
            st.corpus <-
              entry
              ::
              (if st.n_corpus >= corpus_cap then
                 List.filteri (fun j _ -> j < corpus_cap - 1) st.corpus
               else st.corpus);
            st.n_corpus <- min corpus_cap (st.n_corpus + 1)
          end);
      match r.failure with
      | None -> attempt (i + 1)
      | Some f ->
          (* The recorded string (not the random input) is the exact
             schedule: it includes tail-policy picks, so the token
             replays bit for bit whatever the tail. *)
          let recorded = r.outcome.Sched.recorded in
          let shrunk =
            shrink_failure s ~tail:s.s_tail ~mode ~cls:f.cls recorded
          in
          Found
            {
              f_token = token_of s ~tail:s.s_tail ~mode recorded;
              f_shrunk = token_of s ~tail:s.s_tail ~mode shrunk;
              f_failure = f;
              f_attempt = i;
              f_stats = stats i;
            }
    end
  in
  attempt 1
