open Memsim

exception Rollback

type ctx = {
  tid : int;
  arena : Arena.t;
  epoch : Epoch.t;
  retire_threshold : int;
  mutable my_e : int;
  pool : Pool.t;
  obs : Obs.Counters.shard;
  mutable retired : int list;
  mutable retired_len : int;
  (* Appendix B, type 1: nodes allocated since the last checkpoint that are
     not yet reachable. Recycled (not retired) on rollback. *)
  mutable pending : int list;
  (* Advance *attempts* from the alloc slow path; the Epoch_advance event
     counts only the successful ones. *)
  mutable epoch_bumps : int;
  (* Adaptive advance cadence: relaxation spins granted to other threads
     before this one CASes the epoch from the alloc slow path. Doubles on
     every advance this thread loses (someone else is moving the clock),
     halves when its own CAS wins. See [alloc_ctx]. *)
  mutable advance_backoff : int;
  (* Per-thread scratch for multi-value returns on hot paths: a
     traversal that found (pred, curr, ...) writes the components here
     instead of allocating a tuple per call. Single-owner (the ctx is
     per-thread), so plain int stores. Padded onto cache lines of its
     own: [find] writes five slots per update, and unpadded neighbouring
     threads' arrays shared a line. *)
  scratch : int array;
  mutable tr : Obs.Trace.ring option;
}

type t = {
  arena : Arena.t;
  epoch : Epoch.t;
  ctxs : ctx array;
  counters : Obs.Counters.t;
}

let name = "VBR"

type node = int * int

let create_tuned ?(retire_threshold = 64) ?(spill = 4096) ~arena ~global
    ~n_threads () =
  if n_threads < 1 then invalid_arg "Vbr.create: n_threads < 1";
  if retire_threshold < 0 then invalid_arg "Vbr.create: retire_threshold < 0";
  let epoch = Epoch.create () in
  let counters = Obs.Counters.create ~shards:(max 1 n_threads) in
  let ctxs =
    Array.init n_threads (fun tid ->
        let obs = Obs.Counters.shard counters tid in
        {
          tid;
          arena;
          epoch;
          retire_threshold;
          my_e = 1;
          pool = Pool.create ~stats:obs ~shard:tid arena global ~spill;
          obs;
          retired = [];
          retired_len = 0;
          pending = [];
          epoch_bumps = 0;
          advance_backoff = 0;
          scratch = Padded.copy_as_padded (Array.make 8 0);
          tr = None;
        })
  in
  { arena; epoch; ctxs; counters }

(* The CORE-shaped constructor: [hazards] is meaningless under VBR (no
   per-slot protection) and the epoch advances from the alloc slow path
   rather than on an allocation budget, so [epoch_freq] is ignored too. *)
let create ~arena ~global ~n_threads ~hazards:_ ~retire_threshold ~epoch_freq:_
    =
  create_tuned ~retire_threshold ~arena ~global ~n_threads ()

let ctx (t : t) ~tid = t.ctxs.(tid)
let scratch (c : ctx) = c.scratch
let arena (t : t) = t.arena
let epoch (t : t) = t.epoch

let set_trace (t : t) trace =
  Array.iteri
    (fun tid c ->
      let r = Obs.Trace.ring trace ~tid in
      c.tr <- Some r;
      Pool.set_trace c.pool r)
    t.ctxs

let emit (c : ctx) k ~slot ~v1 ~v2 ~epoch =
  match c.tr with
  | None -> ()
  | Some r -> Obs.Trace.emit r k ~slot ~v1 ~v2 ~epoch
let node (c : ctx) i = Arena.get c.arena i

(* The optimistic read path: these derefs legitimately race reclamation
   (the epoch check or birth comparison after the read rejects stale
   values), so a Strict sanitizer must not fault them. *)
let node_spec (c : ctx) i = Arena.get_speculative c.arena i
let refresh_epoch (c : ctx) = c.my_e <- Epoch.get c.epoch

(* Epoch check shared by the read methods (Figure 1, lines 20/24): raise if
   the global epoch moved since this thread's last checkpoint, i.e. a value
   just read may originate from reclaimed memory. *)
let validate (c : ctx) = if c.my_e <> Epoch.get c.epoch then raise Rollback

(* Appendix B: before re-running from a checkpoint, nodes allocated since
   the checkpoint that never became reachable go back to the allocation
   pool (their retire epoch is still ⊥, so re-allocation is immediate). *)
let flush_pending (c : ctx) =
  match c.pending with
  | [] -> ()
  | pending ->
      c.pending <- [];
      Obs.Counters.shard_add c.obs Obs.Event.Dealloc (List.length pending);
      List.iter
        (fun i ->
          emit c Obs.Trace.Dealloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
          Pool.put c.pool i)
        pending

(* Rollback bookkeeping shared by every checkpoint shape. *)
let on_rollback (c : ctx) =
  Obs.Counters.shard_incr c.obs Obs.Event.Rollback;
  (match c.tr with
  | None -> ()
  | Some r ->
      (* Stamped with the epoch that invalidated us, not the stale
         cache, so the thread's traced clock stays monotone. *)
      let e_now = Epoch.get c.epoch in
      Obs.Trace.emit r Obs.Trace.Rollback ~slot:0 ~v1:c.my_e ~v2:e_now
        ~epoch:e_now);
  flush_pending c

(* Top-level recursion, not an inner [loop] closure: [checkpoint] brackets
   every operation, so a per-call closure would charge the minor heap once
   per op even on rollback-free runs. *)
let rec checkpoint (c : ctx) f =
  refresh_epoch c;
  emit c Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:c.my_e;
  match f () with
  | v ->
      c.pending <- [];
      v
  | exception Rollback ->
      on_rollback c;
      checkpoint c f

(* Closure-free checkpoint shapes: the body is a static function applied
   to explicitly threaded arguments, so operations whose state is a few
   scalars (a structure handle, a key, a tid) can run under a checkpoint
   with zero per-call allocation. *)
let rec checkpoint2 (c : ctx) f a b =
  refresh_epoch c;
  emit c Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:c.my_e;
  match f c a b with
  | v ->
      c.pending <- [];
      v
  | exception Rollback ->
      on_rollback c;
      checkpoint2 c f a b

(* Move a full retired list to the allocation pool as a whole (§4.1). *)
let maybe_flush_retired (c : ctx) =
  if c.retired_len >= c.retire_threshold then begin
    let batch = c.retired in
    Obs.Counters.shard_add c.obs Obs.Event.Reclaim c.retired_len;
    c.retired <- [];
    c.retired_len <- 0;
    (match c.tr with
    | None -> ()
    | Some r ->
        (* Emitted before the slots reach the pool (Obs.Trace contract). *)
        List.iter
          (fun i ->
            let n = Arena.get c.arena i in
            Obs.Trace.emit r Obs.Trace.Reclaim ~slot:i
              ~v1:(Atomic.get n.Node.birth)
              ~v2:(Atomic.get n.Node.retire) ~epoch:0)
          batch);
    Pool.put_batch c.pool batch
  end

(* Always succeeds (Figure 1, line 9): the fields of a retired node are
   invalidated and immutable (Assumption 3), so no concurrent update can
   intervene between the load and the CAS. Top-level so that [alloc_ctx]
   allocates no closure per call. *)
let reinit_word word fresh =
  let ok = Access.compare_and_set word (Access.get word) fresh in
  assert ok

let alloc_ctx (c : ctx) ~level key =
  let i = Pool.take c.pool ~level in
  let n = node c i in
  if Access.get n.Node.retire >= c.my_e then begin
    (* Figure 1, lines 3-6: the slot was retired in the current epoch; the
       epoch must move past it (any thread's success is enough) and we
       roll back so my_e is refreshed above the slot's retire epoch.

       Adaptive cadence: the CAS is elided whenever a load shows the
       epoch already moved past our cache — the rollback alone
       un-wedges us, and the CAS was guaranteed to fail. When the epoch
       has NOT moved, someone must advance it or this thread livelocks
       on the same pool head (a hard allocation budget would be unsafe
       here), so we spin [advance_backoff] relaxations to let a
       concurrent winner emerge, then CAS; losing doubles the backoff,
       winning halves it. *)
    c.epoch_bumps <- c.epoch_bumps + 1;
    if Epoch.get c.epoch <> c.my_e then
      Obs.Counters.shard_incr c.obs Obs.Event.Advance_skip
    else begin
      let rec grace k =
        if k > 0 && Epoch.get c.epoch = c.my_e then begin
          Domain.cpu_relax ();
          grace (k - 1)
        end
      in
      grace c.advance_backoff;
      if Epoch.get c.epoch <> c.my_e then begin
        c.advance_backoff <- min (2 * max 1 c.advance_backoff) 64;
        Obs.Counters.shard_incr c.obs Obs.Event.Advance_skip
      end
      else if Epoch.try_advance c.epoch ~expected:c.my_e then begin
        c.advance_backoff <- c.advance_backoff / 2;
        Obs.Counters.shard_incr c.obs Obs.Event.Epoch_advance;
        emit c Obs.Trace.Epoch_advance ~slot:0 ~v1:c.my_e ~v2:(c.my_e + 1)
          ~epoch:(c.my_e + 1)
      end
      else begin
        c.advance_backoff <- min (2 * max 1 c.advance_backoff) 64;
        Obs.Counters.shard_incr c.obs Obs.Event.Advance_skip
      end
    end;
    Pool.put c.pool i;
    raise Rollback
  end;
  let b = c.my_e in
  Access.set n.Node.birth b;
  Access.set n.Node.retire Node.no_epoch;
  (* Line 9: each next word is re-initialised to (null, b) by a CAS from
     its current value. *)
  let fresh = Packed.pack_unchecked ~marked:false ~index:0 ~version:b in
  reinit_word (Node.next0 n) fresh;
  for lvl = 1 to Node.level n - 1 do
    reinit_word (Node.word n lvl) fresh
  done;
  n.Node.key <- key;
  c.pending <- i :: c.pending;
  Obs.Counters.shard_incr c.obs Obs.Event.Alloc;
  emit c Obs.Trace.Alloc ~slot:i ~v1:b ~v2:0 ~epoch:b;
  (i, b)

(* Never-retired sentinels in one pass over one fresh range: no pool,
   no pending list, no CAS (the nodes are private until [base] is
   returned, and fresh nodes already carry retire ⊥). Stamped as
   [alloc_ctx] would under a fresh checkpoint on thread 0, so the Alloc
   counter and trace agree with per-node allocation. *)
let alloc_sentinels (t : t) ~n ~key ~next ~next_birth =
  let c = t.ctxs.(0) in
  let base = Arena.fresh_range t.arena ~n ~level:1 in
  refresh_epoch c;
  let b = c.my_e in
  let link =
    Packed.pack_unchecked ~marked:false ~index:next ~version:(max b next_birth)
  in
  for i = base to base + n - 1 do
    let nd = node c i in
    Access.set nd.Node.birth b;
    Access.set (Node.next0 nd) link;
    nd.Node.key <- key;
    emit c Obs.Trace.Alloc ~slot:i ~v1:b ~v2:0 ~epoch:b
  done;
  Obs.Counters.shard_add c.obs Obs.Event.Alloc n;
  (base, b)

let commit_alloc (c : ctx) i =
  (* The common shape is a single pending allocation; skip the filter's
     list rebuild for it (this runs on every successful insert). *)
  match c.pending with
  | [ j ] when j = i -> c.pending <- []
  | l -> c.pending <- List.filter (fun j -> j <> i) l

let retire_ctx (c : ctx) i ~birth =
  let n = node_spec c i in
  if
    Access.get n.Node.birth > birth
    || Access.get n.Node.retire <> Node.no_epoch
  then () (* line 13: already re-allocated or already retired *)
  else begin
    let re = Epoch.get c.epoch in
    (* Emitted before the retire stamp becomes visible (Obs.Trace
       contract). *)
    emit c Obs.Trace.Retire ~slot:i ~v1:birth ~v2:re ~epoch:re;
    Access.set n.Node.retire re;
    c.retired <- i :: c.retired;
    c.retired_len <- c.retired_len + 1;
    Obs.Counters.shard_incr c.obs Obs.Event.Retire;
    (* A freshly allocated node that failed its insertion CAS is retired
       (Figure 4, line 15); it must not also be recycled as pending. *)
    (match c.pending with
    | [] -> ()
    | _ -> c.pending <- List.filter (fun j -> j <> i) c.pending);
    maybe_flush_retired c;
    if re > c.my_e then raise Rollback (* line 16 *)
  end

(* The CORE-shaped lifecycle: one array index resolves the thread's
   context, then the ctx-level protocol above runs unchanged — so a
   checkpointed caller still gets pending-allocation recycling and
   Rollback propagation through these entry points. *)
let alloc (t : t) ~tid ~level ~key = alloc_ctx (ctx t ~tid) ~level key
let retire (t : t) ~tid (i, birth) = retire_ctx (ctx t ~tid) i ~birth

let dealloc (t : t) ~tid (i, _birth) =
  let c = ctx t ~tid in
  c.pending <- List.filter (fun j -> j <> i) c.pending;
  Obs.Counters.shard_incr c.obs Obs.Event.Dealloc;
  emit c Obs.Trace.Dealloc ~slot:i ~v1:0 ~v2:0 ~epoch:0;
  Pool.put c.pool i

let birth_of (c : ctx) i =
  if i = 0 then 0 else Access.get (node_spec c i).Node.birth

let get_next (c : ctx) ?(lvl = 0) i =
  let w = Access.get (Node.word (node_spec c i) lvl) in
  let succ = Packed.index w in
  let succ_b = birth_of c succ in
  validate c;
  (succ, succ_b)

let get_next_word (c : ctx) ?(lvl = 0) i =
  let w = Access.get (Node.word (node_spec c i) lvl) in
  let succ = Packed.index w in
  let succ_b = birth_of c succ in
  validate c;
  (succ, succ_b, Packed.is_marked w)

(* Allocation-free fusion of [get_next]/[get_next_word]: (successor,
   successor birth, own mark bit) packs into one immediate word — the
   successor index fits the index field by construction and a birth epoch
   fits the version field — so a traversal's per-hop result costs no
   minor-heap block. [lvl] is a required label to keep even the [Some]
   boxing of an optional argument off the hop. *)
let get_next_packed (c : ctx) ~lvl i =
  let w = Access.get (Node.word (node_spec c i) lvl) in
  let succ = Packed.index w in
  let succ_b = birth_of c succ in
  validate c;
  Packed.pack_unchecked ~marked:(Packed.is_marked w) ~index:succ
    ~version:succ_b

(* The cheapest hop: the stored word, validated, as-is. [update] stores
   max(linker birth, successor birth) in the version field, so the raw
   version is NOT the successor's birth — callers must consume only
   [Packed.index] and [Packed.is_marked] of the result. Read-only
   traversals (Figure 6) need exactly those two, and skipping the
   successor-birth recompute saves a node touch per hop. *)
let get_next_raw (c : ctx) ~lvl i =
  let w = Access.get (Node.word (node_spec c i) lvl) in
  validate c;
  w

(* A root word already carries (index, version = pointee birth); validate
   and hand it back unboxed. *)
let read_root_packed (c : ctx) root =
  let w = Access.get root in
  validate c;
  w

let get_key (c : ctx) i =
  let k = (node_spec c i).Node.key in
  validate c;
  k

(* The validated birth epoch of one node, on demand. Pairs with
   [get_next_raw]: a CAS-bound traversal can hop on raw words and
   recompute the births it actually needs (pred, curr) only at its
   stopping point, instead of paying a successor-birth node touch on
   every hop. If the node was recycled since the raw hop, the epoch
   necessarily advanced and [validate] rolls the operation back. *)
let get_birth (c : ctx) i =
  let b = birth_of c i in
  validate c;
  b

let is_marked (c : ctx) ?(lvl = 0) i ~birth =
  let n = node_spec c i in
  let res = Packed.is_marked (Access.get (Node.word n lvl)) in
  if Access.get n.Node.birth <> birth then true (* already removed *)
  else res

let read_birth (t : t) i =
  if i = 0 then 0 else Access.get (Arena.get_speculative t.arena i).Node.birth

let read_retire (t : t) i =
  Access.get (Arena.get_speculative t.arena i).Node.retire

let read_level (t : t) i = Node.level (Arena.get_speculative t.arena i)
let validate_epoch = validate

(* [slot] names the CASed node (0 for a root word) so a traced run can
   localize contention. *)
let count_cas (c : ctx) ~slot ok =
  if not ok then begin
    Obs.Counters.shard_incr c.obs Obs.Event.Cas_fail;
    emit c Obs.Trace.Cas_fail ~slot ~v1:0 ~v2:0 ~epoch:c.my_e
  end;
  ok

let update (c : ctx) ?(lvl = 0) i ~birth ~expected ~expected_birth ~new_ ~new_birth =
  let n = node_spec c i in
  let exp_v = max birth expected_birth in
  let new_v = max birth new_birth in
  count_cas c ~slot:i
    (Access.compare_and_set (Node.word n lvl)
       (Packed.pack_unchecked ~marked:false ~index:expected ~version:exp_v)
       (Packed.pack_unchecked ~marked:false ~index:new_ ~version:new_v))

(* Figure 1 computes the expected version as max(n_b, exp's birth) (line
   36). That recomputation livelocks on partially-linked skiplist towers:
   an un-linked upper-level pointer may legitimately reference an
   already-recycled slot, so the recomputed version never matches the
   stored word and the CAS can fail forever while isMarked stays false.
   CASing from the word actually read is equally safe — the stored word's
   version is at most the old incarnation's retire epoch (Claim 10), and
   every word a recycled slot can ever hold carries a version at least its
   new birth epoch, which is strictly larger (Claim 6) — and it always
   terminates. See DESIGN.md §"Divergences from the paper's pseudo-code". *)
let mark (c : ctx) ?(lvl = 0) i ~birth =
  let n = node_spec c i in
  let w = Access.get (Node.word n lvl) in
  if Access.get n.Node.birth <> birth then false (* line 37: already gone *)
  else if Packed.is_marked w then false
  else
    count_cas c ~slot:i
      (Access.compare_and_set (Node.word n lvl) w (Packed.set_mark w))

(* Raw-expected variant of [update] for a node's *own* not-yet-linked
   field (a skiplist inserter refreshing its forward pointer): the caller
   cannot supply a consistent (expected, expected_birth) pair because the
   current target may already be recycled. Safe for the same version-
   algebra reason as [mark]. *)
let refresh_next (c : ctx) ?(lvl = 0) i ~birth ~new_ ~new_birth =
  let n = node_spec c i in
  let w = Access.get (Node.word n lvl) in
  if Access.get n.Node.birth <> birth then false
  else if Packed.is_marked w then false
  else
    count_cas c ~slot:i
      (Access.compare_and_set (Node.word n lvl) w
         (Packed.pack_unchecked ~marked:false ~index:new_
            ~version:(max birth new_birth)))

(* A garbage edge — one whose stored version is below its target's
   current birth epoch — can never be touched by a versioned CAS (every
   reconstructible expected version uses the target's *current* birth),
   so traversals that must remove it would restart forever. Healing
   redirects such an edge, raw, to a caller-supplied safe target (a
   never-retired sentinel). Only upper skiplist levels can ever carry
   garbage edges; see DESIGN.md. *)
let heal_stale_edge (c : ctx) ?(lvl = 0) i ~birth ~to_ ~to_birth =
  let n = node_spec c i in
  let w = Access.get (Node.word n lvl) in
  if Access.get n.Node.birth <> birth then false
  else if Packed.is_marked w then false
  else begin
    let tgt = Packed.index w in
    tgt <> 0
    && Packed.version w < birth_of c tgt
    && count_cas c ~slot:i
         (Access.compare_and_set (Node.word n lvl) w
            (Packed.pack_unchecked ~marked:false ~index:to_
               ~version:(max birth to_birth)))
  end

let make_root ~init ~init_birth =
  Atomic.make (Packed.pack ~marked:false ~index:init ~version:init_birth)

let read_root (c : ctx) root =
  let w = Access.get root in
  validate c;
  (Packed.index w, Packed.version w)

let cas_root (c : ctx) root ~expected ~expected_birth ~new_ ~new_birth =
  count_cas c ~slot:0
    (Access.compare_and_set root
       (Packed.pack_unchecked ~marked:false ~index:expected
          ~version:expected_birth)
       (Packed.pack_unchecked ~marked:false ~index:new_ ~version:new_birth))

type ctx_stats = {
  allocs : int;
  retires : int;
  rollbacks : int;
  epoch_bumps : int;
  recycled : int;
  retired_pending : int;
}

let ctx_stats (c : ctx) =
  {
    allocs = Obs.Counters.shard_get c.obs Obs.Event.Alloc;
    retires = Obs.Counters.shard_get c.obs Obs.Event.Retire;
    rollbacks = Obs.Counters.shard_get c.obs Obs.Event.Rollback;
    epoch_bumps = c.epoch_bumps;
    recycled = Pool.recycled c.pool;
    retired_pending = c.retired_len;
  }

let counters (t : t) = t.counters
let counters_snapshot (t : t) = Obs.Counters.snapshot t.counters
let stats = counters_snapshot
let freed t = Obs.Counters.get (counters_snapshot t) Obs.Event.Reclaim

let unreclaimed t =
  let s = counters_snapshot t in
  Obs.Counters.get s Obs.Event.Retire - Obs.Counters.get s Obs.Event.Reclaim

let epoch_advances (t : t) = Epoch.advance_counted t.epoch

let total_stats t =
  Array.fold_left
    (fun acc c ->
      let s = ctx_stats c in
      {
        allocs = acc.allocs + s.allocs;
        retires = acc.retires + s.retires;
        rollbacks = acc.rollbacks + s.rollbacks;
        epoch_bumps = acc.epoch_bumps + s.epoch_bumps;
        recycled = acc.recycled + s.recycled;
        retired_pending = acc.retired_pending + s.retired_pending;
      })
    {
      allocs = 0;
      retires = 0;
      rollbacks = 0;
      epoch_bumps = 0;
      recycled = 0;
      retired_pending = 0;
    }
    t.ctxs

let pp_stats ppf s =
  Format.fprintf ppf
    "allocs=%d retires=%d rollbacks=%d epoch_bumps=%d recycled=%d pending=%d"
    s.allocs s.retires s.rollbacks s.epoch_bumps s.recycled s.retired_pending
