open Memsim

(* An unpublished era slot. *)
let none = 0

type thread_state = {
  eras : int Atomic.t array;
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
  era : int Atomic.t;
  threads : thread_state array;
  counters : Obs.Counters.t;
  retire_threshold : int;
  epoch_freq : int;
}

type node = int

let name = "HE"

let create ~arena ~global ~n_threads ~hazards ~retire_threshold ~epoch_freq =
  if hazards < 1 then invalid_arg "He.create: hazards < 1";
  let counters = Obs.Counters.create ~shards:(max 1 n_threads) in
  {
    arena;
    era = Padded.atomic 1;
    threads =
      Array.init n_threads (fun tid ->
          let obs = Obs.Counters.shard counters tid in
          {
            eras = Padded.atomic_array hazards none;
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

let begin_op _ ~tid:_ = ()

let end_op t ~tid =
  let ts = t.threads.(tid) in
  (* Release BEFORE the eras are cleared (Obs.Trace contract). *)
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:(-1);
  Array.iter (fun h -> Access.set h none) ts.eras

(* Publish the era that was current when the pointer was read; stable once
   two consecutive reads happen under the same global era. *)
let protect t ~tid ~slot read =
  let ts = t.threads.(tid) in
  let h = ts.eras.(slot) in
  (* The loop republishes era slot [slot], possibly with a later era that
     protects fewer nodes — release the old reservation before the first
     store, acquire the settled one after the loop. *)
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:slot;
  let rec loop prev_era =
    let w = read () in
    let e = Access.get t.era in
    if e = prev_era then w
    else begin
      Access.set h e;
      Obs.Counters.shard_incr ts.obs Obs.Event.Protect_retry;
      loop e
    end
  in
  let e0 = Access.get t.era in
  Access.set h e0;
  let w = loop e0 in
  (match ts.tr with
  | None -> ()
  | Some r ->
      let g = Atomic.get h in
      Obs.Trace.emit r Obs.Trace.Guard_acquire ~slot:0 ~v1:g ~v2:g ~epoch:slot);
  w

(* [protect] with the load inlined: traversals call this once per hop, so
   the closure the [read] thunk would allocate is worth eliding. *)
let protect_read t ~tid ~slot field =
  let ts = t.threads.(tid) in
  let h = ts.eras.(slot) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:slot;
  let rec loop prev_era =
    let w = Access.get field in
    let e = Access.get t.era in
    if e = prev_era then w
    else begin
      Access.set h e;
      Obs.Counters.shard_incr ts.obs Obs.Event.Protect_retry;
      loop e
    end
  in
  let e0 = Access.get t.era in
  Access.set h e0;
  let w = loop e0 in
  (match ts.tr with
  | None -> ()
  | Some r ->
      let g = Atomic.get h in
      Obs.Trace.emit r Obs.Trace.Guard_acquire ~slot:0 ~v1:g ~v2:g ~epoch:slot);
  w

let reset_node t i ~key =
  let n = Arena.get t.arena i in
  n.Node.key <- key;
  Access.set n.Node.birth (Access.get t.era);
  Access.set n.Node.retire Node.no_epoch;
  Node.iter_words n (fun w -> Access.set w Packed.null)

let alloc t ~tid ~level ~key =
  let ts = t.threads.(tid) in
  ts.advance_countdown <- ts.advance_countdown - 1;
  if ts.advance_countdown <= 0 then begin
    ts.advance_countdown <- t.epoch_freq;
    (* fetch_and_add rather than incr so the traced old -> new transition
       is unique per advance. *)
    let old = Access.fetch_and_add t.era 1 in
    Obs.Counters.shard_incr ts.obs Obs.Event.Epoch_advance;
    emit ts Obs.Trace.Epoch_advance ~slot:0 ~v1:old ~v2:(old + 1)
      ~epoch:(old + 1)
  end;
  let i = Pool.take ts.pool ~level in
  Obs.Counters.shard_incr ts.obs Obs.Event.Alloc;
  reset_node t i ~key;
  (match ts.tr with
  | None -> ()
  | Some r ->
      let b = Atomic.get (Arena.get t.arena i).Node.birth in
      Obs.Trace.emit r Obs.Trace.Alloc ~slot:i ~v1:b ~v2:0 ~epoch:b);
  i

(* Publishing the current era pins any node alive right now: its birth
   era is at most the published era and its retire era will be at least
   it. *)
let protect_own t ~tid ~slot _i =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:slot;
  let e = Access.get t.era in
  Access.set ts.eras.(slot) e;
  emit ts Obs.Trace.Guard_acquire ~slot:0 ~v1:e ~v2:e ~epoch:slot

let transfer t ~tid ~src ~dst =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:dst;
  let v = Atomic.get ts.eras.(src) in
  Access.set ts.eras.(dst) v;
  if v <> none then
    emit ts Obs.Trace.Guard_acquire ~slot:0 ~v1:v ~v2:v ~epoch:dst

let dealloc t ~tid i =
  let ts = t.threads.(tid) in
  Obs.Counters.shard_incr ts.obs Obs.Event.Dealloc;
  emit ts Obs.Trace.Dealloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  Pool.put ts.pool i

(* A node is pinned iff some published era lies in its lifetime. *)
let pinned t ~birth ~retire =
  Array.exists
    (fun ts ->
      Array.exists
        (fun h ->
          let g = Access.get h in
          g <> none && birth <= g && g <= retire)
        ts.eras)
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
  let re = Access.get t.era in
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
