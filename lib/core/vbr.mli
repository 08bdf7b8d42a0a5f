(** VBR: the Figure-1 reclamation interface, checkpoints, and rollback.

    This is the paper's primary contribution. A {!t} owns the shared epoch,
    the arena, and one {!ctx} per thread. Data-structure code is written
    against the read/update methods below instead of raw loads and CASes;
    any method that detects a possible access to reclaimed memory raises
    {!Rollback}, which the {!checkpoint} combinator catches to re-run the
    enclosed code from its last checkpoint (§4.2.1).

    The module satisfies {!Reclaim.Smr_intf.OPTIMISTIC} (checked where the
    [Dstruct] functors are applied to it), so everything a generic
    optimistic structure may use is here; the extras — [create_tuned],
    [epoch], the per-thread {!ctx_stats} projection — are for tests,
    diagnostics and benches.

    Pointer arguments are slot indices ({!Memsim.Packed} index components);
    a node is always handled together with the birth epoch under which it
    was read — the pair (index, birth) is the node's identity across
    re-allocations. *)

exception Rollback
(** Raised by the read/alloc/retire methods when the global epoch moved
    since the thread's last checkpoint, i.e. a read value may be stale.
    Caught by {!checkpoint}; user code should let it propagate. *)

type t
(** The shared VBR instance (epoch + arena + per-thread contexts). *)

type node = int * int
(** The optimistic node identity: (slot index, birth epoch). *)

type ctx
(** A per-thread context: the thread's epoch cache [my_e], its local
    allocation pool and retired list, and its statistics. Must only be
    used by its owning thread. *)

val name : string
(** ["VBR"]. *)

val create :
  arena:Memsim.Arena.t ->
  global:Memsim.Global_pool.t ->
  n_threads:int ->
  hazards:int ->
  retire_threshold:int ->
  epoch_freq:int ->
  t
(** The {!Reclaim.Smr_intf.CORE}-shaped constructor. [hazards] is
    meaningless under VBR (no per-slot protection) and the epoch advances
    from the alloc slow path rather than on an allocation budget, so
    [epoch_freq] is ignored too; both are accepted for uniformity. *)

val create_tuned :
  ?retire_threshold:int ->
  ?spill:int ->
  arena:Memsim.Arena.t ->
  global:Memsim.Global_pool.t ->
  n_threads:int ->
  unit ->
  t
(** [create_tuned ~arena ~global ~n_threads ()] builds a VBR instance with
    VBR-specific knobs. [retire_threshold] (default 64) is the retired-list
    length after which the whole list is moved to the thread's allocation
    pool (§4.1 — batching keeps epoch bumps infrequent); 0 means "recycle
    immediately". [spill] (default 4096) is the local-pool spill threshold
    (see {!Memsim.Pool}). *)

val ctx : t -> tid:int -> ctx
(** The context of thread [tid] (0-based). *)

val scratch : ctx -> int array
(** The context's per-thread scratch plane (at least 8 slots, on cache
    lines no other thread's scratch shares): hot paths that
    would otherwise return a tuple per call (a find's pred/curr/key)
    write their components here instead — zero allocation. Contents are
    only meaningful between a writer and the immediately following
    reader on the same thread; any operation may clobber them. *)

val arena : t -> Memsim.Arena.t
val epoch : t -> Epoch.t

val set_trace : t -> Obs.Trace.t -> unit
(** Attach a lifecycle trace (one ring per thread, {!Obs.Trace}): every
    subsequent alloc/dealloc/retire/reclaim, checkpoint, rollback, epoch
    advance and failed versioned CAS emits an event on the acting
    thread's ring. Call once, before any operation runs. When never
    called, every hook is one match on an immediate [None]. *)

(** {1 The node lifecycle}

    The [t]-plus-[tid] shape shared with every other scheme
    ({!Reclaim.Smr_intf.CORE}); each call resolves the thread's {!ctx}
    with one array index and runs the ctx-level protocol, so a
    checkpointed caller still gets pending-allocation recycling and
    {!Rollback} propagation through these entry points. *)

val alloc : t -> tid:int -> level:int -> key:int -> node
(** Figure 1, lines 1–11. Returns [(index, birth_epoch)] of a node whose
    every next word is ⟨NULL, birth⟩ and whose key is [key]. May advance
    the global epoch and raise {!Rollback} (lines 3–6). Until
    {!commit_alloc}, the node is recycled by a rollback (Appendix B).
    @raise Memsim.Arena.Exhausted if the simulated heap is full. *)

val dealloc : t -> tid:int -> node -> unit
(** Return a node that was never published to its thread's pool
    immediately (no grace period — it was never shared). *)

val retire : t -> tid:int -> node -> unit
(** Figure 1, lines 12–16. Idempotent under the double-retire guard; may
    raise {!Rollback} after the node is safely on the retired list. *)

val alloc_sentinels :
  t -> n:int -> key:int -> next:int -> next_birth:int -> int * int
(** [alloc_sentinels t ~n ~key ~next ~next_birth] carves [n] never-retired
    level-1 nodes as one contiguous fresh range ({!Memsim.Arena.fresh_range})
    and returns [(base, birth)]: slots [base .. base + n - 1] all have
    birth [birth] (the current epoch), retire ⊥, key [key], and a level-0
    word pointing at [next] with version [max birth next_birth] — the
    {!update} encoding, so a versioned CAS can replace it. No slot passes
    through a pool or the pending list. Thread 0's [Alloc] counter and
    trace ring record one event per node. Call before the instance is
    shared; sentinels must never be retired, which makes [birth] a
    constant a structure may cache.
    @raise Memsim.Arena.Exhausted if fewer than [n] fresh slots remain. *)

val alloc_ctx : ctx -> level:int -> int -> node
(** [alloc_ctx c ~level key] is {!alloc} on the thread that owns [c],
    without the [t]/[tid] lookup: operation bodies that already hold
    their context allocate through this. *)

val retire_ctx : ctx -> int -> birth:int -> unit
(** [retire_ctx c i ~birth] is {!retire} of [(i, birth)] on the thread
    that owns [c]. *)

(** {1 Checkpoints (§4.2.1)} *)

val checkpoint : ctx -> (unit -> 'a) -> 'a
(** [checkpoint c f] installs a checkpoint and runs [f]. On {!Rollback},
    it performs the Appendix-B duties (returning nodes allocated since the
    checkpoint to the allocation pool), refreshes [my_e] from the global
    epoch, and re-runs [f]. Operation bodies wrap their retry loop in this;
    a second checkpoint after a rollback-unsafe CAS is expressed by calling
    [checkpoint] again on the remainder of the operation. *)

val checkpoint2 : ctx -> (ctx -> 'a -> 'b -> 'r) -> 'a -> 'b -> 'r
(** [checkpoint2 c f a b] is [checkpoint c (fun () -> f c a b)] without
    the closure: when [f] is a top-level function and the arguments are
    immediates, the call allocates nothing, which matters on operation
    hot paths re-run once per rollback. *)

val refresh_epoch : ctx -> unit
(** Re-read the global epoch into [my_e]. [checkpoint] does this
    automatically; exposed for operations that install a checkpoint
    mid-flight without a combinator. *)

val commit_alloc : ctx -> int -> unit
(** Tell the context that node [index] became reachable (its insertion CAS
    succeeded), so a later rollback must not recycle it. Call immediately
    after the successful publishing CAS, before any further VBR method. *)

(** {1 The Figure-1 methods}

    [lvl] selects the mutable next field (tower level); list code uses the
    default 0. *)

val get_next : ctx -> ?lvl:int -> int -> int * int
(** Figure 1, lines 17–21: [(successor index, successor birth)] of the
    given node at level [lvl], unmarked. Raises {!Rollback} if the epoch
    changed (possible stale read). *)

val get_next_word : ctx -> ?lvl:int -> int -> int * int * bool
(** Like {!get_next} but also returns whether the next word was marked —
    a convenience for traversals that would otherwise pair [get_next] with
    [is_marked]; same validation. *)

val get_next_packed : ctx -> lvl:int -> int -> Memsim.Packed.t
(** Allocation-free fusion of {!get_next} and {!get_next_word}: the result
    word's index is the successor slot, its version the successor's birth
    epoch, and its mark bit the node's own mark — all in one immediate
    [int], so a traversal hop allocates nothing. [lvl] is a required label
    (an optional argument would box). Same validation as {!get_next}. *)

val get_next_raw : ctx -> lvl:int -> int -> Memsim.Packed.t
(** The stored next word, validated, as-is — the cheapest hop. The raw
    version field is [max] of the linker's and successor's births (the
    {!update} encoding), NOT the successor's birth, so callers must
    consume only [Packed.index] and [Packed.is_marked] of the result.
    For read-only traversals that never CAS (Figure 6). *)

val get_key : ctx -> int -> int
(** Figure 1, lines 22–25. Raises {!Rollback} if the epoch changed. *)

val get_birth : ctx -> int -> int
(** The node's current birth epoch, validated. Pairs with
    {!get_next_raw}: a CAS-bound traversal can hop on raw words and
    recompute the births it actually needs (pred, curr) only at its
    stopping point. A recycled node implies an epoch advance, so a stale
    raw hop is caught here by the validation. Raises {!Rollback} if the
    epoch changed. *)

val is_marked : ctx -> ?lvl:int -> int -> birth:int -> bool
(** Figure 1, lines 26–29. Never rolls back: a birth-epoch mismatch means
    the node was certainly removed, so the answer TRUE is exact. *)

val read_birth : t -> int -> int
(** Birth epoch of a slot; 0 for NULL. Used when capturing entry points. *)

val read_retire : t -> int -> int
(** Current retire epoch of a slot ([Memsim.Node.no_epoch] if unretired).
    Together with {!read_birth}, certifies after the fact that a node was
    not mid-recycle at some earlier instant: if birth is unchanged and the
    retire epoch is still ⊥ now, the node was unretired the whole time. *)

val read_level : t -> int -> int
(** Tower height of a slot. Fixed at slot creation (type preservation), so
    even a stale read is exact. *)

val validate_epoch : ctx -> unit
(** Raise {!Rollback} if the global epoch moved since the last checkpoint
    — the check every read method performs, exposed for code that must
    revalidate just before a CAS whose arguments were read earlier. *)

val update :
  ctx ->
  ?lvl:int ->
  int ->
  birth:int ->
  expected:int ->
  expected_birth:int ->
  new_:int ->
  new_birth:int ->
  bool
(** Figure 1, lines 30–33: versioned CAS of an unmarked next word from
    [expected] to [new_]. Succeeds iff the node is unreclaimed, unmarked
    and still points to [expected] (Appendix A, Claims 11–12). *)

val mark : ctx -> ?lvl:int -> int -> birth:int -> bool
(** Figure 1, lines 34–39: set the mark bit of the node's next word
    without changing the pointer or its version. Succeeds iff the node is
    unreclaimed and was unmarked (Claims 13–15). Implementation note: the
    expected word is the one actually read rather than Figure 1's
    recomputed version — equivalent for safety and immune to the
    partially-linked-tower livelock (see DESIGN.md). *)

val refresh_next :
  ctx -> ?lvl:int -> int -> birth:int -> new_:int -> new_birth:int -> bool
(** Redirect a node's next word to [new_] from *whatever it currently
    holds* (raw expected). Only for fields that are not yet reachable at
    this level (a skiplist inserter's own tower), where the current target
    may be recycled and no consistent (expected, birth) pair exists.
    Fails if the node was re-allocated or the word is marked. *)

val heal_stale_edge :
  ctx -> ?lvl:int -> int -> birth:int -> to_:int -> to_birth:int -> bool
(** [heal_stale_edge c ~lvl i ~birth ~to_ ~to_birth] — repair for a
    *garbage edge*: a next word whose version is smaller than its target
    slot's current birth epoch. Such an edge (possible only on skiplist
    upper levels, via the inserter/remover race DESIGN.md §5 describes)
    can never be CASed by the versioned methods, because every
    reconstructible expected version uses the target's current birth.
    Redirects the word, raw, to the caller-supplied never-retired node
    [to_] (a sentinel). Returns whether a repair was performed; [false]
    when the word is healthy, marked, or the node was re-allocated. *)

(** {1 Entry-point words}

    A data structure's entry points (§3.1) — a queue's head and tail, a
    stack's top — are mutable shared words that live outside any node.
    They are represented as packed words whose version is the birth epoch
    of the referenced node: the entry point itself is never allocated or
    retired, so Figure 1's max-of-births version rule degenerates to the
    pointee's birth, and the same ABA argument applies (a recycled pointee
    has a strictly larger birth, so a stale root CAS must fail). *)

val make_root : init:int -> init_birth:int -> int Atomic.t
(** A root word referencing node [init] (with its birth), or NULL when
    [init = 0]. *)

val read_root : ctx -> int Atomic.t -> int * int
(** [(index, birth)] of the referenced node — the birth is the version
    stored in the word, so the pair is read atomically. Epoch-validated;
    raises {!Rollback} like the other read methods. *)

val read_root_packed : ctx -> int Atomic.t -> Memsim.Packed.t
(** Allocation-free {!read_root}: the raw validated root word — its index
    and version components are the node and its birth. *)

val cas_root :
  ctx ->
  int Atomic.t ->
  expected:int ->
  expected_birth:int ->
  new_:int ->
  new_birth:int ->
  bool
(** Versioned CAS of a root word. Never rolls back. *)

(** {1 Statistics} *)

val stats : t -> Obs.Counters.snapshot
(** Racy merged snapshot of the instance's event counters — the uniform
    {!Reclaim.Smr_intf.CORE} view (same as {!counters_snapshot}). *)

val freed : t -> int
(** Total slots recycled through the batched retired-list flush: the
    [Reclaim] counter (stats; racy). *)

val unreclaimed : t -> int
(** Retired slots currently waiting on a thread's retired list:
    [Retire] minus [Reclaim] (stats; racy). Bounded by
    [n_threads * retire_threshold] — no thread can stall VBR's
    reclamation, which is the robustness claim. *)

val epoch_advances : t -> int
(** Global epoch increments so far. *)

type ctx_stats = {
  allocs : int;  (** successful [alloc] returns *)
  retires : int;  (** effective (non-duplicate) retirements *)
  rollbacks : int;  (** checkpoint rollbacks executed *)
  epoch_bumps : int;  (** advance attempts from the alloc slow path *)
  recycled : int;  (** allocations served from pools, not fresh slots *)
  retired_pending : int;  (** nodes currently on this thread's retired list *)
}

val ctx_stats : ctx -> ctx_stats
(** This thread's projection of the protocol counters. *)

val total_stats : t -> ctx_stats
(** {!ctx_stats} summed over every thread. *)

val pp_stats : Format.formatter -> ctx_stats -> unit

val counters : t -> Obs.Counters.t
(** The instance's sharded event counters (one shard per thread): the
    protocol events ([Alloc]/[Dealloc]/[Retire]/[Reclaim]/[Rollback]/
    [Cas_fail]/[Epoch_advance]) plus the allocator events its pools emit.
    [ctx_stats] above is a per-thread projection of the same data. *)

val counters_snapshot : t -> Obs.Counters.snapshot
(** Racy merged snapshot of {!counters} (alias of {!stats}). *)
