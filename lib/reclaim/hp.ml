open Memsim

type thread_state = {
  hazards : int Atomic.t array;  (* 0 = empty slot *)
  pool : Pool.t;
  obs : Obs.Counters.shard;
  mutable retired : int list;
  mutable retired_len : int;
  (* Adaptive scan trigger (new with the batched-scan refactor: HP used
     to rescan on EVERY retire once the list reached the threshold,
     going quadratic whenever a stalled thread's hazards pinned nodes).
     Scan when the retired list doubles past what survived the previous
     scan, so scan work stays amortized O(1) per retirement. *)
  mutable scan_trigger : int;
  mutable tr : Obs.Trace.ring option;
}

type t = {
  arena : Arena.t;
  threads : thread_state array;
  counters : Obs.Counters.t;
  retire_threshold : int;
}

type node = int

let name = "HP"

let create ~arena ~global ~n_threads ~hazards ~retire_threshold ~epoch_freq:_
    =
  if hazards < 1 then invalid_arg "Hp.create: hazards < 1";
  let counters = Obs.Counters.create ~shards:(max 1 n_threads) in
  {
    arena;
    threads =
      Array.init n_threads (fun tid ->
          let obs = Obs.Counters.shard counters tid in
          {
            (* Each hazard slot padded to its own line: the owner stores
               per traversal hop while every scanning thread reads. *)
            hazards = Padded.atomic_array hazards 0;
            pool = Pool.create ~stats:obs ~shard:tid arena global ~spill:4096;
            obs;
            retired = [];
            retired_len = 0;
            scan_trigger = max 1 retire_threshold;
            tr = None;
          });
    counters;
    retire_threshold = max 1 retire_threshold;
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
  (* Release BEFORE the hazards are cleared (Obs.Trace contract):
     epoch = -1 releases every guard slot of this thread at once. *)
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:(-1);
  Array.iter (fun h -> Access.set h 0) ts.hazards

(* Publish-and-validate loop: once the source field is re-read with the
   same index after the hazard became visible, the node cannot have been
   recycled in between (retire happens only after the final unlink, which
   would have changed the field). *)
let protect t ~tid ~slot read =
  let ts = t.threads.(tid) in
  let h = ts.hazards.(slot) in
  (* The loop below overwrites guard slot [slot]; whatever it held stops
     protecting, so the release is emitted before the first store. The
     acquire is emitted only after a validated publish. *)
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:slot;
  let rec loop w =
    let i = Packed.index w in
    if i = 0 then begin
      Access.set h 0;
      w
    end
    else begin
      Access.set h i;
      let w' = read () in
      if Packed.index w' = i then begin
        emit ts Obs.Trace.Guard_acquire ~slot:i ~v1:0 ~v2:0 ~epoch:slot;
        w'
      end
      else begin
        Obs.Counters.shard_incr ts.obs Obs.Event.Protect_retry;
        loop w'
      end
    end
  in
  loop (read ())

(* [protect] with the load inlined: traversals call this once per hop, so
   the closure the [read] thunk would allocate is worth eliding. *)
let protect_read t ~tid ~slot field =
  let ts = t.threads.(tid) in
  let h = ts.hazards.(slot) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:slot;
  let rec loop w =
    let i = Packed.index w in
    if i = 0 then begin
      Access.set h 0;
      w
    end
    else begin
      Access.set h i;
      let w' = Access.get field in
      if Packed.index w' = i then begin
        emit ts Obs.Trace.Guard_acquire ~slot:i ~v1:0 ~v2:0 ~epoch:slot;
        w'
      end
      else begin
        Obs.Counters.shard_incr ts.obs Obs.Event.Protect_retry;
        loop w'
      end
    end
  in
  loop (Access.get field)

let reset_node arena i ~key =
  let n = Arena.get arena i in
  n.Node.key <- key;
  Access.set n.Node.retire Node.no_epoch;
  Node.iter_words n (fun w -> Access.set w Packed.null)

let alloc t ~tid ~level ~key =
  let ts = t.threads.(tid) in
  let i = Pool.take ts.pool ~level in
  Obs.Counters.shard_incr ts.obs Obs.Event.Alloc;
  reset_node t.arena i ~key;
  emit ts Obs.Trace.Alloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  i

let protect_own t ~tid ~slot i =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:slot;
  Access.set ts.hazards.(slot) i;
  if i <> 0 then emit ts Obs.Trace.Guard_acquire ~slot:i ~v1:0 ~v2:0 ~epoch:slot

let transfer t ~tid ~src ~dst =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:dst;
  let v = Atomic.get ts.hazards.(src) in
  Access.set ts.hazards.(dst) v;
  if v <> 0 then emit ts Obs.Trace.Guard_acquire ~slot:v ~v1:0 ~v2:0 ~epoch:dst

let dealloc t ~tid i =
  let ts = t.threads.(tid) in
  Obs.Counters.shard_incr ts.obs Obs.Event.Dealloc;
  emit ts Obs.Trace.Dealloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  Pool.put ts.pool i

(* Recycle retired nodes held by no hazard slot of any thread. *)
let scan t ts =
  let module Iset = Set.Make (Int) in
  let hazard_set =
    Array.fold_left
      (fun acc other ->
        Array.fold_left
          (fun acc h ->
            let v = Access.get h in
            if v = 0 then acc else Iset.add v acc)
          acc other.hazards)
      Iset.empty t.threads
  in
  let keep, keep_len, free =
    Retired.partition_keep ~keep:(fun i -> Iset.mem i hazard_set) ts.retired
  in
  ts.retired <- keep;
  ts.retired_len <- keep_len;
  List.iter
    (fun i ->
      Obs.Counters.shard_incr ts.obs Obs.Event.Reclaim;
      emit ts Obs.Trace.Reclaim ~slot:i ~v1:0 ~v2:0 ~epoch:0;
      Pool.put ts.pool i)
    free

let retire t ~tid i =
  let ts = t.threads.(tid) in
  emit ts Obs.Trace.Retire ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  ts.retired <- i :: ts.retired;
  ts.retired_len <- ts.retired_len + 1;
  Obs.Counters.shard_incr ts.obs Obs.Event.Retire;
  if ts.retired_len >= ts.scan_trigger then begin
    scan t ts;
    ts.scan_trigger <- max t.retire_threshold (2 * ts.retired_len)
  end
  else if ts.retired_len >= t.retire_threshold then
    (* The old per-op policy would have rescanned here. *)
    Obs.Counters.shard_incr ts.obs Obs.Event.Scan_skip

let stats t = Obs.Counters.snapshot t.counters
let freed t = Obs.Counters.read t.counters Obs.Event.Reclaim

let unreclaimed t =
  Obs.Counters.read t.counters Obs.Event.Retire
  - Obs.Counters.read t.counters Obs.Event.Reclaim
