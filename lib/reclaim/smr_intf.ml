(** The capability signatures of every safe-memory-reclamation backend in
    this repository.

    All backends share {!CORE} — lifecycle (create/alloc/dealloc/retire)
    plus observability (stats/freed/unreclaimed) — and add exactly one
    *access capability* describing how data-structure code may read shared
    memory under them:

    - {!GUARDED}: the conservative plane (NoRecl, EBR, HP, HE, IBR). Every
      load of a shared pointer goes through a protect/validate call and
      operations are bracketed by [begin_op]/[end_op]; a node named by a
      published guard is never reclaimed.
    - {!OPTIMISTIC}: VBR's Figure-1 plane. Reads are unprotected but
      epoch-validated after the fact; a stale read raises [Rollback],
      which the [checkpoint] combinator catches to re-run the operation;
      writes are versioned CASes that fail on any reincarnated node.

    The two capabilities differ in their node identity: a guarded scheme
    hands out bare slot indices (protection makes the index stable), while
    an optimistic scheme hands out (index, birth-epoch) pairs — the birth
    is the part of the identity that survives recycling.

    {!backend} packs one scheme of either capability as a first-class
    module, so harness code can enumerate the whole scheme family from one
    table (see {!Harness.Registry}). *)

(** Shared by every scheme: construction, the node lifecycle, and the
    observability plane. [node] is the scheme's node identity — what a
    structure stores and passes back to [retire]. *)
module type CORE = sig
  type t

  type node
  (** The scheme's node identity: [int] (a slot index) for guarded
      schemes, [int * int] (index, birth epoch) for optimistic ones. *)

  val name : string
  (** Short scheme name as used in the paper's plots (e.g. "EBR"). *)

  val create :
    arena:Memsim.Arena.t ->
    global:Memsim.Global_pool.t ->
    n_threads:int ->
    hazards:int ->
    retire_threshold:int ->
    epoch_freq:int ->
    t
  (** [create ~arena ~global ~n_threads ~hazards ~retire_threshold
      ~epoch_freq] builds an instance.
      [hazards] is the number of protection slots each thread may use
      (pointer-based schemes only; 3 for lists, [2*max_level + 2] for
      skiplists). [retire_threshold] is the retired-list length that
      triggers a reclamation scan (for VBR: the batched recycle, §4.1).
      [epoch_freq] is the number of allocations between global epoch/era
      advances (EBR/HE/IBR; ignored by schemes without an allocation-driven
      clock). *)

  val set_trace : t -> Obs.Trace.t -> unit
  (** Attach a lifecycle trace (one ring per thread; see {!Obs.Trace}):
      every subsequent alloc/dealloc/retire/reclaim, guard transition,
      epoch advance and (for VBR) checkpoint/rollback emits an event on
      the acting thread's ring, following the emission-placement contract
      documented in {!Obs.Trace}. Call once, before any operation runs —
      attaching is not synchronised against concurrent workers. When
      never called, every hook is a single match on an immediate [None],
      so Figure-2 numbers are unaffected. *)

  val alloc : t -> tid:int -> level:int -> key:int -> node
  (** A node ready for insertion: key set, next words NULL and unmarked,
      birth era/epoch stamped where the scheme needs one.
      @raise Memsim.Arena.Exhausted when the simulated heap is full. *)

  val dealloc : t -> tid:int -> node -> unit
  (** Return a node that was allocated but never published (its insertion
      CAS failed), so it can be reused immediately — it was never shared,
      so no grace period is needed. *)

  val retire : t -> tid:int -> node -> unit
  (** Announce that the node was unlinked for the last time. The scheme
      decides when the slot really returns to the pools. *)

  val stats : t -> Obs.Counters.snapshot
  (** Racy merged snapshot of the scheme's event counters (one padded
      shard per thread; see {!Obs.Counters}). Every backend counts the
      protocol events ([Alloc]/[Dealloc]/[Retire]/[Reclaim]), its
      protection retries or rollbacks, epoch/era advances, and — through
      the shards it hands to {!Memsim.Pool} — the allocator events
      underneath. *)

  val freed : t -> int
  (** Total slots returned to the pools so far: the [Reclaim] counter
      (stats; racy). *)

  val unreclaimed : t -> int
  (** Retired slots not yet returned to the pools: [Retire] minus
      [Reclaim] (stats; racy). This is the robustness metric: a stalled
      thread makes it grow without bound under EBR but not under HP or
      VBR. *)
end

(** The conservative access capability (NoRecl, EBR, HP, HE, IBR): data
    structures are written once as functors over this signature and get
    all five backends for free.

    The protocol expected from data-structure code, per operation:
    + [begin_op] before touching shared memory;
    + every load of a shared pointer field goes through {!GUARDED.protect},
      giving the scheme a chance to publish a hazard/era and validate it;
    + [retire] on nodes after their final unlink;
    + [end_op] when the operation returns (clears hazards / reservations).

    Slot indices, packed words and node fields are those of {!Memsim}. *)
module type GUARDED = sig
  include CORE with type node = int

  val begin_op : t -> tid:int -> unit
  val end_op : t -> tid:int -> unit

  val protect :
    t -> tid:int -> slot:int -> (unit -> Memsim.Packed.t) -> Memsim.Packed.t
  (** [protect t ~tid ~slot read] returns a packed word obtained from
      [read ()] whose index component is protected from reclamation until
      the slot is reused or [end_op]. [read] must be an idempotent load of
      the same shared field; it is re-invoked until validation succeeds.
      Epoch-based schemes return [read ()] unchanged. *)

  val protect_read :
    t -> tid:int -> slot:int -> Memsim.Packed.t Atomic.t -> Memsim.Packed.t
  (** [protect_read t ~tid ~slot field] is
      [protect t ~tid ~slot (fun () -> Memsim.Access.get field)] without
      the closure: the scheme loads the shared word itself, so a traversal
      hop allocates nothing. Semantically identical to {!protect}. *)

  val protect_own : t -> tid:int -> slot:int -> int -> unit
  (** Unconditionally publish protection for a node the caller knows is
      not yet retired (typically its own node around the publishing CAS,
      e.g. a skiplist inserter that keeps linking upper levels after the
      bottom-level link made the node deletable by others). No validation
      loop is needed because a not-yet-retired node cannot have been
      missed by a reclamation scan. *)

  val transfer : t -> tid:int -> src:int -> dst:int -> unit
  (** Copy the protection held in slot [src] to slot [dst] (hand-over-hand
      traversal advancing [curr] into [pred]). No-op for schemes without
      per-slot protection. *)
end

module type S = GUARDED
(** Backward-compatible alias: the original scheme signature, now the
    guarded capability. *)

(** The optimistic access capability — VBR's Figure-1 protocol (§4).
    Nodes are (index, birth-epoch) pairs; reads validate the global epoch
    after the load and raise [Rollback] on movement; updates are versioned
    CASes whose expected word encodes the target's birth, so a CAS on a
    reincarnated node must fail.

    Per-operation protocol: wrap the operation body in {!checkpoint};
    perform every shared read through the epoch-validated methods; after a
    rollback-unsafe CAS (a linearization point), open an inner
    [checkpoint] over the remainder so a rollback cannot cross back over
    it. *)
module type OPTIMISTIC = sig
  include CORE with type node = int * int

  exception Rollback
  (** Raised by the read/alloc/retire methods when the global epoch moved
      since the thread's last checkpoint, i.e. a read value may be stale.
      Caught by {!checkpoint}; user code should let it propagate. *)

  type ctx
  (** A per-thread context: the thread's epoch cache, its local allocation
      pool and retired list. Must only be used by its owning thread. *)

  val ctx : t -> tid:int -> ctx
  (** The context of thread [tid] (0-based). *)

  val scratch : ctx -> int array
  (** The context's per-thread scratch plane (at least 8 slots, on cache
      lines no other thread's scratch shares): hot paths that
      would otherwise return a tuple per call (a find's pred/curr/key)
      write their components here instead — zero allocation. Contents
      are only meaningful between a writer and the immediately
      following reader on the same thread. *)

  (** {2 Checkpoints (§4.2.1)} *)

  val checkpoint : ctx -> (unit -> 'a) -> 'a
  (** [checkpoint c f] installs a checkpoint and runs [f]. On {!Rollback},
      it performs the Appendix-B duties (returning nodes allocated since
      the checkpoint to the allocation pool), refreshes the thread's epoch
      cache, and re-runs [f]. *)

  val checkpoint2 : ctx -> (ctx -> 'a -> 'b -> 'r) -> 'a -> 'b -> 'r
  (** [checkpoint2 c f a b] is [checkpoint c (fun () -> f c a b)] without
      the closure: when [f] is a top-level function and the arguments are
      immediates, the call allocates nothing — operation hot paths use
      this. *)

  val refresh_epoch : ctx -> unit
  (** Re-read the global epoch into the thread's cache. [checkpoint] does
      this automatically; exposed for operations that install a checkpoint
      mid-flight without a combinator. *)

  val validate_epoch : ctx -> unit
  (** Raise {!Rollback} if the global epoch moved since the last
      checkpoint — the check every read method performs, exposed for code
      that must revalidate just before a CAS whose arguments were read
      earlier. *)

  val commit_alloc : ctx -> int -> unit
  (** Tell the context that the node with this index became reachable (its
      insertion CAS succeeded), so a later rollback must not recycle it.
      Call immediately after the successful publishing CAS, before any
      further method. *)

  val alloc_sentinels :
    t -> n:int -> key:int -> next:int -> next_birth:int -> int * int
  (** [alloc_sentinels t ~n ~key ~next ~next_birth] is [(base, birth)]
      of [n] contiguous, never-retired level-1 nodes (slots [base .. base
      + n - 1]) with key [key], birth [birth], and a level-0 word
      pointing at [next] with version [max birth next_birth]. For a
      structure's sentinels, built before the instance is shared: since
      they are never retired, [birth] is a constant callers may cache. *)

  val alloc_ctx : ctx -> level:int -> int -> node
  (** [alloc_ctx c ~level key] is [alloc] on the thread that owns [c]: an
      operation body that holds its context needs neither the instance
      nor the thread id to allocate. *)

  val retire_ctx : ctx -> int -> birth:int -> unit
  (** [retire_ctx c i ~birth] is [retire] of [(i, birth)] on the thread
      that owns [c]. *)

  (** {2 Birth-stamped reads (Figure 1, lines 17–29)}

      [lvl] selects the mutable next field (tower level); list code uses
      the default 0. *)

  val get_next : ctx -> ?lvl:int -> int -> int * int
  (** [(successor index, successor birth)] of the given node at level
      [lvl], unmarked. Raises {!Rollback} if the epoch changed (possible
      stale read). *)

  val get_next_word : ctx -> ?lvl:int -> int -> int * int * bool
  (** Like {!get_next} but also returns whether the next word was marked;
      same validation. *)

  val get_next_packed : ctx -> lvl:int -> int -> Memsim.Packed.t
  (** Allocation-free fusion of {!get_next} and {!get_next_word}: the
      result word's index is the successor slot, its version the
      successor's birth epoch, and its mark bit the node's own mark — one
      immediate [int], so a traversal hop allocates nothing. [lvl] is a
      required label (an optional argument would box). Same validation as
      {!get_next}. *)

  val get_next_raw : ctx -> lvl:int -> int -> Memsim.Packed.t
  (** The stored next word, validated, as-is — the cheapest hop. The raw
      version field is [max] of the linker's and successor's births (the
      {!update} encoding), NOT the successor's birth, so callers must
      consume only [Packed.index] and [Packed.is_marked] of the result.
      For read-only traversals that never CAS. *)

  val get_key : ctx -> int -> int
  (** Raises {!Rollback} if the epoch changed. *)

  val get_birth : ctx -> int -> int
  (** The node's current birth epoch, validated. Pairs with
      {!get_next_raw}: a CAS-bound traversal can hop on raw words and
      recompute the births it actually needs only at its stopping point.
      Raises {!Rollback} if the epoch changed. *)

  val is_marked : ctx -> ?lvl:int -> int -> birth:int -> bool
  (** Never rolls back: a birth-epoch mismatch means the node was
      certainly removed, so the answer TRUE is exact. *)

  val read_birth : t -> int -> int
  (** Birth epoch of a slot; 0 for NULL. Used when capturing entry points
      and when certifying an edge after the fact. *)

  val read_retire : t -> int -> int
  (** Current retire epoch of a slot ([Memsim.Node.no_epoch] if
      unretired). Together with {!read_birth}, certifies after the fact
      that a node was not mid-recycle at some earlier instant. *)

  val read_level : t -> int -> int
  (** Tower height of a slot. Fixed at slot creation (type preservation),
      so even a stale read is exact. *)

  (** {2 Versioned CASes (Figure 1, lines 30–39)} *)

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
  (** Versioned CAS of an unmarked next word from [expected] to [new_].
      Succeeds iff the node is unreclaimed, unmarked and still points to
      [expected]. *)

  val mark : ctx -> ?lvl:int -> int -> birth:int -> bool
  (** Set the mark bit of the node's next word without changing the
      pointer or its version. Succeeds iff the node is unreclaimed and was
      unmarked. *)

  val refresh_next :
    ctx -> ?lvl:int -> int -> birth:int -> new_:int -> new_birth:int -> bool
  (** Redirect a node's next word to [new_] from *whatever it currently
      holds* (raw expected). Only for fields that are not yet reachable at
      this level (a skiplist inserter's own tower), where the current
      target may be recycled and no consistent (expected, birth) pair
      exists. Fails if the node was re-allocated or the word is marked. *)

  val heal_stale_edge :
    ctx -> ?lvl:int -> int -> birth:int -> to_:int -> to_birth:int -> bool
  (** Repair for a *garbage edge*: a next word whose version is smaller
      than its target slot's current birth epoch, which no versioned CAS
      can ever remove. Redirects the word, raw, to the caller-supplied
      never-retired node [to_] (a sentinel). Returns whether a repair was
      performed. *)

  (** {2 Entry-point words (§3.1)}

      A structure's entry points — a queue's head and tail, a stack's top
      — are mutable shared words living outside any node, represented as
      packed words whose version is the referenced node's birth epoch. *)

  val make_root : init:int -> init_birth:int -> int Atomic.t
  (** A root word referencing node [init] (with its birth), or NULL when
      [init = 0]. *)

  val read_root : ctx -> int Atomic.t -> int * int
  (** [(index, birth)] of the referenced node, read atomically.
      Epoch-validated; raises {!Rollback} like the other read methods. *)

  val read_root_packed : ctx -> int Atomic.t -> Memsim.Packed.t
  (** Allocation-free {!read_root}: the raw validated root word — its
      index and version components are the node and its birth. *)

  val cas_root :
    ctx ->
    int Atomic.t ->
    expected:int ->
    expected_birth:int ->
    new_:int ->
    new_birth:int ->
    bool
  (** Versioned CAS of a root word. Never rolls back. *)

  (** {2 Extra observability} *)

  val epoch_advances : t -> int
  (** Global epoch increments so far. The §5.2 discussion attributes VBR's
      win over EBR/HE/IBR to this staying small. *)

  val arena : t -> Memsim.Arena.t
  (** The instance's arena (quiescent structure walks in tests). *)
end

(** One scheme of either capability, packed for table-driven harness code.
    The whole family the evaluation uses is an enumerable list of these
    (see {!Harness.Registry}). *)
type backend =
  | Guarded of (module GUARDED)
  | Optimistic of (module OPTIMISTIC)
