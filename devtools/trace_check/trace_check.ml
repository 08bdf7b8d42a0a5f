(* Offline checker for lifecycle traces (DESIGN.md §2.10): replay an
   Obs.Trace.dump in global sequence order against the dynamic SMR
   invariants and report violations as Lint_core findings, anchored to the
   CSV line of the offending event (event [i] sits on line [i + 3],
   matching Obs.Trace.write_csv).

   Soundness (no false positive on a correct execution) rests on the
   emission placement contract documented in Obs.Trace: protection-
   extending / stage-entering events are emitted after their store,
   shrinking / exiting events before. So if a guard's acquire precedes
   a node's retire in the trace and no release intervenes before the
   reclaim, the protection really did overlap the unlink — which a
   correct scheme never reclaims under. *)
open Lint_core
open Obs

(* Per-slot lifecycle state machine. [Unknown] is the pre-history state
   of a slot first seen mid-trace (its earlier events were never emitted
   or were overwritten): transitions out of it are always accepted. *)
type slot_state = Unknown | Free | Live | Retired | Reused

type guard = {
  g_slot : int;  (* protected index, or 0 for an interval guard *)
  g_lo : int;  (* protected birth interval (interval guards) *)
  g_hi : int;  (* -1 = +inf *)
  g_seq : int;  (* seq of the acquire that installed this guard *)
}

type report = {
  findings : Finding.t list;
  truncated : bool;
      (* dropped > 0: the lifecycle, guard and rollback rules were
         skipped (each ring lost its oldest events, so those rules
         would report pre-history as violations); the epoch rules,
         which are suffix-closed, still ran. *)
}

let line_of i = i + 3

(* [birth, retire] conflicts with a guard's [lo, hi] reservation iff the
   intervals intersect; hi = -1 is +inf. An index guard conflicts iff it
   names the slot. Either way the guard only counts when it was acquired
   before the node's retire was emitted (g_seq < retire_seq): a guard
   published after the unlink is what every scheme's validation step
   exists to tolerate. *)
let guard_conflicts g ~slot ~birth ~retire ~retire_seq =
  g.g_seq < retire_seq
  && (if g.g_slot > 0 then g.g_slot = slot
      else (g.g_hi = -1 || birth <= g.g_hi) && g.g_lo <= retire)

let check ~file (d : Trace.dump) =
  let findings = ref [] in
  let add i ~rule ~message ~hint =
    findings :=
      Finding.make ~rule ~file ~line:(line_of i) ~col:0 ~message ~hint
      :: !findings
  in
  let truncated = d.Trace.d_dropped > 0 in
  let events = d.Trace.d_events in
  let n = Array.length events in
  (* trace-order: the dump must be a strictly increasing seq sequence
     (the global fetch-and-add makes seqs unique; a duplicate or
     inversion means the file was edited or two dumps were spliced). *)
  for i = 1 to n - 1 do
    if events.(i).Trace.e_seq <= events.(i - 1).Trace.e_seq then
      add i ~rule:"trace-order"
        ~message:
          (Printf.sprintf "seq %d does not increase over preceding seq %d"
             events.(i).Trace.e_seq
             events.(i - 1).Trace.e_seq)
        ~hint:
          "dumps are sorted by the global emission counter; re-export the \
           trace rather than editing or concatenating CSVs"
  done;
  (* trace-epoch-monotonic: per thread, the epoch stamp never decreases
     over epoch-bearing events (guard events carry a guard id there and
     epoch 0 means "no clock", so both are skipped). *)
  let last_epoch = Hashtbl.create 16 in
  Array.iteri
    (fun i e ->
      match e.Trace.e_kind with
      | Trace.Guard_acquire | Trace.Guard_release -> ()
      | _ ->
          let ep = e.Trace.e_epoch in
          if ep > 0 then begin
            (match Hashtbl.find_opt last_epoch e.Trace.e_tid with
            | Some prev when ep < prev ->
                add i ~rule:"trace-epoch-monotonic"
                  ~message:
                    (Printf.sprintf
                       "thread %d's epoch went backwards: %d after %d"
                       e.Trace.e_tid ep prev)
                  ~hint:
                    "a thread's reads of the global clock are monotone; an \
                     event stamped with a stale cached epoch (e.g. my_e \
                     after a concurrent advance) breaks replay — stamp with \
                     the epoch read at emission"
            | _ -> ());
            Hashtbl.replace last_epoch e.Trace.e_tid ep
          end)
    events;
  (* trace-epoch-advance: each advance is one tick (v2 = v1 + 1) and no
     two advances produce the same new epoch (they are CAS-or-faa
     mediated, so every transition is unique). *)
  let seen_advance = Hashtbl.create 16 in
  Array.iteri
    (fun i e ->
      if e.Trace.e_kind = Trace.Epoch_advance then begin
        if e.Trace.e_v2 <> e.Trace.e_v1 + 1 then
          add i ~rule:"trace-epoch-advance"
            ~message:
              (Printf.sprintf "epoch advance %d -> %d is not one tick"
                 e.Trace.e_v1 e.Trace.e_v2)
            ~hint:
              "advances go through a CAS or fetch-and-add of +1; emit the \
               (old, old+1) pair actually installed";
        match Hashtbl.find_opt seen_advance e.Trace.e_v2 with
        | Some j ->
            add i ~rule:"trace-epoch-advance"
              ~message:
                (Printf.sprintf
                   "epoch %d installed twice (previous advance at line %d)"
                   e.Trace.e_v2 (line_of j))
              ~hint:
                "two threads cannot both win the advance to the same epoch; \
                 emit only on the successful CAS (or use fetch-and-add so \
                 the transition is unique)"
        | None -> Hashtbl.add seen_advance e.Trace.e_v2 i
      end)
    events;
  if not truncated then begin
    (* trace-rollback-scope: a VBR rollback is only handled inside a
       checkpoint window, so a thread must have armed one first. *)
    let checkpointed = Hashtbl.create 16 in
    (* Per-slot lifecycle machine + latest retire seq (for the guard
       rule below). *)
    let state = Hashtbl.create 1024 in
    let retire_seq = Hashtbl.create 1024 in
    let get_state s =
      match Hashtbl.find_opt state s with Some st -> st | None -> Unknown
    in
    (* Active guards, keyed by (tid, guard slot id). A re-acquire on the
       same key replaces the previous reservation and refreshes g_seq —
       conservative: the checker forgets the older (already validated or
       abandoned) reservation rather than accumulating it. *)
    let guards : (int * int, guard) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun i e ->
        let slot = e.Trace.e_slot in
        let tid = e.Trace.e_tid in
        match e.Trace.e_kind with
        | Trace.Checkpoint -> Hashtbl.replace checkpointed tid ()
        | Trace.Rollback ->
            if not (Hashtbl.mem checkpointed tid) then
              add i ~rule:"trace-rollback-scope"
                ~message:
                  (Printf.sprintf
                     "thread %d rolled back without an armed checkpoint" tid)
                ~hint:
                  "Rollback must only be raised under Vbr.checkpoint; wrap \
                   the operation body (see DESIGN.md §2.3)"
        | Trace.Guard_acquire ->
            Hashtbl.replace guards
              (tid, e.Trace.e_epoch)
              {
                g_slot = slot;
                g_lo = e.Trace.e_v1;
                g_hi = e.Trace.e_v2;
                g_seq = e.Trace.e_seq;
              }
        | Trace.Guard_release ->
            if e.Trace.e_epoch = -1 then
              (* all guards of this thread *)
              Hashtbl.iter
                (fun (t, g) _ -> if t = tid then Hashtbl.remove guards (t, g))
                (Hashtbl.copy guards)
            else Hashtbl.remove guards (tid, e.Trace.e_epoch)
        | Trace.Alloc ->
            (match get_state slot with
            | Live ->
                add i ~rule:"trace-lifecycle"
                  ~message:(Printf.sprintf "alloc of live slot %d" slot)
                  ~hint:
                    "the slot was allocated and never retired or deallocated \
                     in between; the pool handed one slot out twice"
            | Retired ->
                add i ~rule:"trace-lifecycle"
                  ~message:
                    (Printf.sprintf "alloc of slot %d before its reclaim" slot)
                  ~hint:
                    "a retired slot must be scanned back to the pool \
                     (Reclaim) before reuse; allocating it early is a \
                     use-after-retire"
            | Unknown | Free | Reused -> ());
            Hashtbl.replace state slot Live
        | Trace.Retire ->
            (match get_state slot with
            | Retired ->
                add i ~rule:"trace-lifecycle"
                  ~message:(Printf.sprintf "double retire of slot %d" slot)
                  ~hint:
                    "retire is once per lifetime; a second retire corrupts \
                     the retired list (VBR's double-retire guard exists for \
                     this)"
            | Free | Reused ->
                add i ~rule:"trace-lifecycle"
                  ~message:
                    (Printf.sprintf "retire of unallocated slot %d" slot)
                  ~hint:
                    "only a live (allocated, published) slot can be retired"
            | Live | Unknown -> ());
            Hashtbl.replace state slot Retired;
            Hashtbl.replace retire_seq slot e.Trace.e_seq
        | Trace.Reclaim ->
            (match get_state slot with
            | Live | Reused ->
                add i ~rule:"trace-lifecycle"
                  ~message:
                    (Printf.sprintf "reclaim of slot %d before its retire"
                       slot)
                  ~hint:
                    "reclamation frees retired slots only; freeing a live \
                     slot is the use-after-free every SMR scheme exists to \
                     prevent"
            | Free ->
                add i ~rule:"trace-lifecycle"
                  ~message:(Printf.sprintf "double reclaim of slot %d" slot)
                  ~hint:"the slot is already back in the pool"
            | Retired | Unknown -> ());
            (match Hashtbl.find_opt retire_seq slot with
            | None -> ()  (* pre-history retire; nothing to anchor *)
            | Some rseq ->
                Hashtbl.iter
                  (fun (gtid, gid) g ->
                    if
                      guard_conflicts g ~slot ~birth:e.Trace.e_v1
                        ~retire:e.Trace.e_v2 ~retire_seq:rseq
                    then
                      add i ~rule:"trace-guard-reclaim"
                        ~message:
                          (Printf.sprintf
                             "slot %d reclaimed while thread %d's guard %d \
                              (acquired before the retire) still covers it"
                             slot gtid gid)
                        ~hint:
                          "the scan must treat a protection published \
                           before the retire as pinning the node; check the \
                           hazard/reservation comparison in the scheme's \
                           scan")
                  guards);
            Hashtbl.replace state slot Free
        | Trace.Reuse ->
            (match get_state slot with
            | Retired ->
                add i ~rule:"trace-lifecycle"
                  ~message:
                    (Printf.sprintf "reuse of slot %d before its reclaim" slot)
                  ~hint:
                    "the pool recycled a slot that was never scanned free; \
                     retired slots must pass the scheme's safety check first"
            | Live ->
                add i ~rule:"trace-lifecycle"
                  ~message:(Printf.sprintf "reuse of live slot %d" slot)
                  ~hint:"the pool recycled a slot that is still published"
            | Free | Unknown | Reused -> ());
            Hashtbl.replace state slot Reused
        | Trace.Dealloc ->
            (match get_state slot with
            | Retired ->
                add i ~rule:"trace-lifecycle"
                  ~message:(Printf.sprintf "dealloc of retired slot %d" slot)
                  ~hint:
                    "dealloc is the no-grace-period return of a never-\
                     published slot; a retired slot must go through Reclaim"
            | Free | Reused ->
                add i ~rule:"trace-lifecycle"
                  ~message:
                    (Printf.sprintf "dealloc of unallocated slot %d" slot)
                  ~hint:"the slot is already in the pool"
            | Live | Unknown -> ());
            Hashtbl.replace state slot Free
        | Trace.Epoch_advance | Trace.Cas_fail | Trace.Sched_yield -> ())
      events
  end;
  { findings = List.rev !findings; truncated }
