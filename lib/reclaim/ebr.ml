open Memsim

(* A thread announces [quiescent] between operations. *)
let quiescent = max_int

type thread_state = {
  announce : int Atomic.t;
  pool : Pool.t;
  obs : Obs.Counters.shard;
  mutable retired : int list;  (* node indices; retire epoch is on the node *)
  mutable retired_len : int;
  (* Adaptive scan trigger: scan when the retired list doubles past what
     survived the previous scan, so scan work stays amortized O(1) per
     retirement even while a descheduled thread pins the horizon (an
     oversubscription regime the paper's testbed never enters). *)
  mutable scan_trigger : int;
  (* Adaptive advance cadence: a countdown of allocations until the next
     epoch-advance attempt. The reload period starts at [epoch_freq] and
     doubles whenever the advance CAS fails (another thread moved the
     epoch — this thread's clock duty is being covered), so under
     contention the per-thread CAS traffic on the epoch word decays
     geometrically instead of every thread hammering it every
     [epoch_freq] allocs. A successful CAS resets the period. *)
  mutable advance_countdown : int;
  mutable advance_period : int;
  mutable tr : Obs.Trace.ring option;
}

type t = {
  arena : Arena.t;
  epoch : int Atomic.t;
  threads : thread_state array;
  counters : Obs.Counters.t;
  retire_threshold : int;
  epoch_freq : int;
}

type node = int

let name = "EBR"

let create ~arena ~global ~n_threads ~hazards:_ ~retire_threshold ~epoch_freq =
  let counters = Obs.Counters.create ~shards:(max 1 n_threads) in
  {
    arena;
    (* Padded: the epoch word is read by every [begin_op] and CASed by
       every advance; the announce slots are scanned by every reclaimer
       while their owners store to them per op. *)
    epoch = Padded.atomic 1;
    threads =
      Array.init n_threads (fun tid ->
          let obs = Obs.Counters.shard counters tid in
          {
            announce = Padded.atomic quiescent;
            pool = Pool.create ~stats:obs ~shard:tid arena global ~spill:4096;
            obs;
            retired = [];
            retired_len = 0;
            scan_trigger = max 1 retire_threshold;
            advance_countdown = max 1 epoch_freq;
            advance_period = max 1 epoch_freq;
            tr = None;
          });
    counters;
    retire_threshold = max 1 retire_threshold;
    epoch_freq = max 1 epoch_freq;
  }

let set_trace t trace =
  Array.iteri
    (fun tid ts ->
      let r = Obs.Trace.ring trace ~tid in
      ts.tr <- Some r;
      Pool.set_trace ts.pool r)
    t.threads

let emit ts k ~slot ~v1 ~v2 ~epoch =
  match ts.tr with
  | None -> ()
  | Some r -> Obs.Trace.emit r k ~slot ~v1 ~v2 ~epoch

(* Guard acquire is emitted AFTER the announce store is visible, release
   BEFORE it is cleared: the offline checker may then treat any interval
   between the two events as genuinely protected (Obs.Trace contract). *)
let begin_op t ~tid =
  let ts = t.threads.(tid) in
  let e = Access.get t.epoch in
  Access.set ts.announce e;
  (* Interval guard [e, +inf): everything retired at or after the
     announced epoch is protected. *)
  emit ts Obs.Trace.Guard_acquire ~slot:0 ~v1:e ~v2:(-1) ~epoch:0

let end_op t ~tid =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:(-1);
  Access.set ts.announce quiescent

let protect _ ~tid:_ ~slot:_ read = read ()

(* The epoch announcement in [begin_op] already protects everything
   reachable; a protected read is a plain load, closure or not. *)
let protect_read _ ~tid:_ ~slot:_ field = Access.get field

(* Advance the global epoch unconditionally (the paper's "tuned" EBR):
   safety never depends on the advance — a node is freed only when its
   retire epoch precedes every announced epoch — so waiting for stragglers
   before advancing would only delay reclamation. Under oversubscription
   (more domains than cores) a wait-for-all policy starves: someone is
   always behind, the epoch freezes, and retire-list scans go quadratic. *)
let max_advance_period_factor = 64

let try_advance t ts =
  let cur = Access.get t.epoch in
  if Access.compare_and_set t.epoch cur (cur + 1) then begin
    Obs.Counters.shard_incr ts.obs Obs.Event.Epoch_advance;
    emit ts Obs.Trace.Epoch_advance ~slot:0 ~v1:cur ~v2:(cur + 1) ~epoch:(cur + 1);
    ts.advance_period <- t.epoch_freq
  end
  else begin
    (* Lost the race: someone else is advancing the clock, so back off
       (double the period, capped so a thread never goes fully silent). *)
    Obs.Counters.shard_incr ts.obs Obs.Event.Advance_skip;
    ts.advance_period <-
      min (2 * ts.advance_period) (t.epoch_freq * max_advance_period_factor)
  end;
  ts.advance_countdown <- ts.advance_period

let min_announced t =
  Array.fold_left
    (fun acc ts -> min acc (Access.get ts.announce))
    quiescent t.threads

(* Recycle every retired node whose retire epoch precedes all announced
   epochs: such a node was unlinked before any in-flight operation began. *)
let scan t ts =
  let horizon = min_announced t in
  let horizon = if horizon = quiescent then Access.get t.epoch + 1 else horizon in
  let keep, keep_len, free =
    Retired.partition_keep
      ~keep:(fun i -> Atomic.get (Arena.get t.arena i).Node.retire >= horizon)
      ts.retired
  in
  ts.retired <- keep;
  ts.retired_len <- keep_len;
  List.iter
    (fun i ->
      Obs.Counters.shard_incr ts.obs Obs.Event.Reclaim;
      (match ts.tr with
      | None -> ()
      | Some r ->
          Obs.Trace.emit r Obs.Trace.Reclaim ~slot:i ~v1:0
            ~v2:(Atomic.get (Arena.get t.arena i).Node.retire)
            ~epoch:0);
      Pool.put ts.pool i)
    free

let reset_node arena i ~key =
  let n = Arena.get arena i in
  n.Node.key <- key;
  Access.set n.Node.retire Node.no_epoch;
  Node.iter_words n (fun w -> Access.set w Packed.null)

let alloc t ~tid ~level ~key =
  let ts = t.threads.(tid) in
  (* Countdown instead of [alloc_ticks mod epoch_freq]: same cadence in
     the uncontended case, no hardware division per alloc, and the
     reload period adapts (see [thread_state]). *)
  ts.advance_countdown <- ts.advance_countdown - 1;
  if ts.advance_countdown <= 0 then try_advance t ts;
  let i = Pool.take ts.pool ~level in
  Obs.Counters.shard_incr ts.obs Obs.Event.Alloc;
  reset_node t.arena i ~key;
  (match ts.tr with
  | None -> ()
  | Some r ->
      Obs.Trace.emit r Obs.Trace.Alloc ~slot:i ~v1:0 ~v2:0
        ~epoch:(Atomic.get t.epoch));
  i

let protect_own _ ~tid:_ ~slot:_ _i = ()

let transfer _ ~tid:_ ~src:_ ~dst:_ = ()

let dealloc t ~tid i =
  let ts = t.threads.(tid) in
  Obs.Counters.shard_incr ts.obs Obs.Event.Dealloc;
  emit ts Obs.Trace.Dealloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  Pool.put ts.pool i

let retire t ~tid i =
  let ts = t.threads.(tid) in
  let re = Access.get t.epoch in
  (* Emitted before the retire stamp becomes visible: a guard logged
     after this event was provably announced after the unlink. *)
  emit ts Obs.Trace.Retire ~slot:i ~v1:0 ~v2:re ~epoch:re;
  Access.set (Arena.get t.arena i).Node.retire re;
  ts.retired <- i :: ts.retired;
  ts.retired_len <- ts.retired_len + 1;
  Obs.Counters.shard_incr ts.obs Obs.Event.Retire;
  if ts.retired_len >= ts.scan_trigger then begin
    try_advance t ts;
    scan t ts;
    ts.scan_trigger <- max t.retire_threshold (2 * ts.retired_len)
  end
  else if ts.retired_len >= t.retire_threshold then
    (* A per-op policy would have scanned here; the adaptive trigger
       amortized it away. *)
    Obs.Counters.shard_incr ts.obs Obs.Event.Scan_skip

let stats t = Obs.Counters.snapshot t.counters
let freed t = Obs.Counters.read t.counters Obs.Event.Reclaim

let unreclaimed t =
  Obs.Counters.read t.counters Obs.Event.Retire
  - Obs.Counters.read t.counters Obs.Event.Reclaim
