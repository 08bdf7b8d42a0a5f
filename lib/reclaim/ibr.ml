open Memsim

let inactive = max_int

type thread_state = {
  lower : int Atomic.t;
  upper : int Atomic.t;
  pool : Pool.t;
  obs : Obs.Counters.shard;
  mutable retired : int list;
  mutable retired_len : int;
  (* Adaptive scan trigger: scan when the retired list doubles past what
     survived the previous scan, so scan work stays amortized O(1) per
     retirement even while a descheduled thread pins the horizon (an
     oversubscription regime the paper's testbed never enters). *)
  mutable scan_trigger : int;
  (* Allocations until the next era/epoch advance: same cadence as the
     old [alloc_ticks mod epoch_freq] but without a hardware division
     on every allocation. *)
  mutable advance_countdown : int;
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

let name = "IBR"

let create ~arena ~global ~n_threads ~hazards:_ ~retire_threshold ~epoch_freq
    =
  let counters = Obs.Counters.create ~shards:(max 1 n_threads) in
  {
    arena;
    epoch = Padded.atomic 1;
    threads =
      Array.init n_threads (fun tid ->
          let obs = Obs.Counters.shard counters tid in
          {
            lower = Padded.atomic inactive;
            upper = Padded.atomic 0;
            pool = Pool.create ~stats:obs ~shard:tid arena global ~spill:4096;
            obs;
            retired = [];
            retired_len = 0;
            scan_trigger = max 1 retire_threshold;
            advance_countdown = max 1 epoch_freq;
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

(* One interval reservation per thread: guard slot id 0. Acquires are
   emitted after the reservation stores are visible, the release before
   they are cleared (Obs.Trace contract); extending the upper bound
   re-emits the acquire with the wider interval. *)
let begin_op t ~tid =
  let ts = t.threads.(tid) in
  let e = Access.get t.epoch in
  Access.set ts.upper e;
  Access.set ts.lower e;
  emit ts Obs.Trace.Guard_acquire ~slot:0 ~v1:e ~v2:e ~epoch:0

let end_op t ~tid =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:(-1);
  Access.set ts.lower inactive;
  Access.set ts.upper 0

(* 2GE read barrier: re-read the field until the global epoch is stable,
   extending the reservation's upper bound on every change. *)
let note_extended ts =
  match ts.tr with
  | None -> ()
  | Some r ->
      Obs.Trace.emit r Obs.Trace.Guard_acquire ~slot:0
        ~v1:(Atomic.get ts.lower) ~v2:(Atomic.get ts.upper) ~epoch:0

let protect t ~tid ~slot:_ read =
  let ts = t.threads.(tid) in
  let rec loop extended last =
    let w = read () in
    let e = Access.get t.epoch in
    if e = last then begin
      if extended then note_extended ts;
      w
    end
    else begin
      Access.set ts.upper e;
      Obs.Counters.shard_incr ts.obs Obs.Event.Protect_retry;
      loop true e
    end
  in
  loop false (Atomic.get ts.upper)

(* [protect] with the load inlined: traversals call this once per hop, so
   the closure the [read] thunk would allocate is worth eliding. *)
let protect_read t ~tid ~slot:_ field =
  let ts = t.threads.(tid) in
  let rec loop extended last =
    let w = Access.get field in
    let e = Access.get t.epoch in
    if e = last then begin
      if extended then note_extended ts;
      w
    end
    else begin
      Access.set ts.upper e;
      Obs.Counters.shard_incr ts.obs Obs.Event.Protect_retry;
      loop true e
    end
  in
  loop false (Atomic.get ts.upper)

let reset_node t i ~key =
  let n = Arena.get t.arena i in
  n.Node.key <- key;
  Access.set n.Node.birth (Access.get t.epoch);
  Access.set n.Node.retire Node.no_epoch;
  Node.iter_words n (fun w -> Access.set w Packed.null)

let alloc t ~tid ~level ~key =
  let ts = t.threads.(tid) in
  ts.advance_countdown <- ts.advance_countdown - 1;
  if ts.advance_countdown <= 0 then begin
    ts.advance_countdown <- t.epoch_freq;
    (* fetch_and_add rather than incr so the traced old -> new transition
       is unique per advance. *)
    let old = Access.fetch_and_add t.epoch 1 in
    Obs.Counters.shard_incr ts.obs Obs.Event.Epoch_advance;
    emit ts Obs.Trace.Epoch_advance ~slot:0 ~v1:old ~v2:(old + 1)
      ~epoch:(old + 1)
  end;
  let i = Pool.take ts.pool ~level in
  Obs.Counters.shard_incr ts.obs Obs.Event.Alloc;
  reset_node t i ~key;
  (* Cover our own allocation with the reservation so the node stays
     pinned if another thread retires it right after we publish it. *)
  let e = Access.get t.epoch in
  if e > Atomic.get ts.upper then begin
    Access.set ts.upper e;
    note_extended ts
  end;
  (match ts.tr with
  | None -> ()
  | Some r ->
      let b = Atomic.get (Arena.get t.arena i).Node.birth in
      Obs.Trace.emit r Obs.Trace.Alloc ~slot:i ~v1:b ~v2:0 ~epoch:b);
  i

let protect_own _ ~tid:_ ~slot:_ _i = ()

let transfer _ ~tid:_ ~src:_ ~dst:_ = ()

let dealloc t ~tid i =
  let ts = t.threads.(tid) in
  Obs.Counters.shard_incr ts.obs Obs.Event.Dealloc;
  emit ts Obs.Trace.Dealloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  Pool.put ts.pool i

(* Lifetime [b, r] conflicts with reservation [l, u] iff b <= u && l <= r. *)
let pinned t ~birth ~retire =
  Array.exists
    (fun ts ->
      let l = Access.get ts.lower in
      let u = Access.get ts.upper in
      l <> inactive && birth <= u && l <= retire)
    t.threads

let scan t ts =
  let keep, keep_len, free =
    Retired.partition_keep
      ~keep:(fun i ->
        let n = Arena.get t.arena i in
        pinned t ~birth:(Atomic.get n.Node.birth)
          ~retire:(Atomic.get n.Node.retire))
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
          let n = Arena.get t.arena i in
          Obs.Trace.emit r Obs.Trace.Reclaim ~slot:i
            ~v1:(Atomic.get n.Node.birth)
            ~v2:(Atomic.get n.Node.retire) ~epoch:0);
      Pool.put ts.pool i)
    free

let retire t ~tid i =
  let ts = t.threads.(tid) in
  let n = Arena.get t.arena i in
  let re = Access.get t.epoch in
  (* Emitted before the retire stamp becomes visible (Obs.Trace
     contract): a reservation logged after this event postdates the
     unlink. *)
  (match ts.tr with
  | None -> ()
  | Some r ->
      Obs.Trace.emit r Obs.Trace.Retire ~slot:i
        ~v1:(Atomic.get n.Node.birth) ~v2:re ~epoch:re);
  Access.set n.Node.retire re;
  ts.retired <- i :: ts.retired;
  ts.retired_len <- ts.retired_len + 1;
  Obs.Counters.shard_incr ts.obs Obs.Event.Retire;
  if ts.retired_len >= ts.scan_trigger then begin
    scan t ts;
    ts.scan_trigger <- max t.retire_threshold (2 * ts.retired_len)
  end
  else if ts.retired_len >= t.retire_threshold then
    (* A per-op policy would have scanned here; amortized away. *)
    Obs.Counters.shard_incr ts.obs Obs.Event.Scan_skip

let stats t = Obs.Counters.snapshot t.counters
let freed t = Obs.Counters.read t.counters Obs.Event.Reclaim

let unreclaimed t =
  Obs.Counters.read t.counters Obs.Event.Retire
  - Obs.Counters.read t.counters Obs.Event.Reclaim
