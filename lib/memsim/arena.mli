(** The simulated heap: a bounded, slot-indexed, type-preserving arena.

    This stands in for the paper's pre-allocated object pools (§5.1): a
    "pointer" is a slot index in [1 .. capacity]; slot 0 is reserved as
    NULL. Fresh slots are handed out by a lock-free bump counter; recycled
    slots circulate through {!Pool} without the arena's involvement — the
    arena itself never frees anything, matching the paper ("retired nodes
    are not returned to the operating system").

    Chunked storage keeps creation O(1): the node records of a chunk are
    materialised the first time any slot in the chunk is claimed. Node
    records are published before their index can leak to another domain
    (the claiming domain stores the record, then shares the index only via
    an [Atomic] operation, which orders the two). *)

type t

exception Exhausted
(** Raised by {!fresh} and {!fresh_range} when the arena capacity (or the 24-bit index space)
    is used up. Benchmarks size arenas so that only a buggy configuration
    can hit this. *)

val create : capacity:int -> t
(** [create ~capacity] makes an arena with [capacity] usable slots.
    @raise Invalid_argument if [capacity < 1] or
    [capacity > Packed.max_index]. *)

val capacity : t -> int
(** Number of usable slots. *)

val attach_sanitizer : t -> Sanitizer.mode -> Sanitizer.t
(** Enable the debug {!Sanitizer} on this arena (see its docs for the
    mode ladder and which modes are sound for which scheme). Attach
    before any thread allocates; the returned handle is also available
    through {!sanitizer}. *)

val sanitizer : t -> Sanitizer.t option
(** The attached sanitizer, if any. {!Pool} routes free/reuse events
    through it; {!get} consults it in [Strict] mode. *)

val fresh : t -> level:int -> int
(** Claim a never-used slot and create its node with the given tower
    height. Lock-free (one [Atomic.fetch_and_add]).
    @raise Exhausted when no fresh slot remains.
    @raise Invalid_argument if [level < 1]. *)

val fresh_range : t -> n:int -> level:int -> int
(** [fresh_range t ~n ~level] claims [n] never-used, contiguous slots
    [base .. base + n - 1] with one [Atomic.fetch_and_add] and creates
    their nodes; returns [base]. The range may straddle chunks. A
    structure that needs many nodes of one shape at creation (hash
    bucket sentinels) can then name them by arithmetic on [base].
    @raise Exhausted when fewer than [n] fresh slots remain (the bump
    counter still advances, as for {!fresh}).
    @raise Invalid_argument if [n < 1] or [level < 1]. *)

val allocated : t -> int
(** Number of fresh slots claimed so far (never decreases; recycling does
    not return slots to the arena). *)

val get : t -> int -> Node.t
(** [get t i] is the node in slot [i]. The caller must only pass indices
    previously returned by {!fresh} (possibly obtained staleley through a
    data-structure pointer — that is the point of the simulation).
    @raise Invalid_argument on slot 0 or an out-of-range index.
    @raise Sanitizer.Violation in [Strict] mode when slot [i] is on a
    free list — so claimed-safe derefs must go through this entry. *)

val get_speculative : t -> int -> Node.t
(** Like {!get} but never consults the sanitizer: the read entry for
    accesses that are {e validated after the fact} (VBR's epoch-checked
    reads, a scheme's own retired-list walks over possibly-recycled
    slots). Using it declares "this read tolerates a freed slot", which
    is exactly what lets {!Sanitizer.mode} [Strict] run under the
    deterministic scheduler for every scheme, VBR included.
    @raise Invalid_argument on slot 0 or an out-of-range index. *)
