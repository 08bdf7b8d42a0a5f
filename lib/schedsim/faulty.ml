(* Deliberately broken GUARDED backends: seeded bugs for the schedule
   explorer. Each is a minimal, realistic mistake — the kind of bug the
   SMR discipline exists to prevent — and each needs a specific
   interleaving to bite, so finding it exercises exploration and its
   shrunk decision string becomes a fixture (test/sched_fixtures/).

   Only for tests: never registered in Harness.Registry. *)

open Memsim

(* Frees a retired node immediately, with no grace period and no
   protection: the textbook ABA / read-after-free. Any reader holding
   the node's index across a concurrent delete dereferences a freed
   (possibly reincarnated) slot — Sanitizer Strict catches the deref,
   and the linearizability checker the resulting lost keys. *)
module Immediate_free = struct
  type thread_state = { pool : Pool.t; obs : Obs.Counters.shard }

  type t = { arena : Arena.t; threads : thread_state array; counters : Obs.Counters.t }

  type node = int

  let name = "FaultyImmediateFree"

  let create ~arena ~global ~n_threads ~hazards:_ ~retire_threshold:_
      ~epoch_freq:_ =
    let counters = Obs.Counters.create ~shards:(max 1 n_threads) in
    {
      arena;
      counters;
      threads =
        Array.init n_threads (fun tid ->
            let obs = Obs.Counters.shard counters tid in
            { pool = Pool.create ~stats:obs arena global ~spill:4096; obs });
    }

  let set_trace _ _ = ()
  let begin_op _ ~tid:_ = ()
  let end_op _ ~tid:_ = ()
  let protect _ ~tid:_ ~slot:_ read = read ()
  let protect_read _ ~tid:_ ~slot:_ field = Access.get field
  let protect_own _ ~tid:_ ~slot:_ _ = ()
  let transfer _ ~tid:_ ~src:_ ~dst:_ = ()

  let alloc t ~tid ~level ~key =
    let ts = t.threads.(tid) in
    let i = Pool.take ts.pool ~level in
    Obs.Counters.shard_incr ts.obs Obs.Event.Alloc;
    let n = Arena.get t.arena i in
    n.Node.key <- key;
    Access.set n.Node.retire Node.no_epoch;
    Node.iter_words n (fun w -> Access.set w Packed.null);
    i

  let dealloc t ~tid i =
    let ts = t.threads.(tid) in
    Obs.Counters.shard_incr ts.obs Obs.Event.Dealloc;
    Pool.put ts.pool i

  (* The bug: straight back to the free list, concurrent readers be
     damned. *)
  let retire t ~tid i =
    let ts = t.threads.(tid) in
    Obs.Counters.shard_incr ts.obs Obs.Event.Retire;
    Obs.Counters.shard_incr ts.obs Obs.Event.Reclaim;
    Pool.put ts.pool i

  let stats t = Obs.Counters.snapshot t.counters
  let freed t = Obs.Counters.read t.counters Obs.Event.Reclaim

  let unreclaimed t =
    Obs.Counters.read t.counters Obs.Event.Retire
    - Obs.Counters.read t.counters Obs.Event.Reclaim
end

(* Hazard pointers with the validation re-read missing: the hazard is
   published after the load, and the load is never repeated. In the
   window between reading the pointer and the hazard store becoming
   visible, a concurrent retire-and-scan misses the hazard and frees
   the node the reader is about to dereference. *)
module Late_guard = struct
  include Reclaim.Hp

  let name = "FaultyLateGuard"

  let protect t ~tid ~slot read =
    let w = read () in
    let i = Packed.index w in
    if i <> 0 then Reclaim.Hp.protect_own t ~tid ~slot i;
    w

  (* Same seeded bug on the closure-free path. *)
  let protect_read t ~tid ~slot field =
    let w = Access.get field in
    let i = Packed.index w in
    if i <> 0 then Reclaim.Hp.protect_own t ~tid ~slot i;
    w
end
