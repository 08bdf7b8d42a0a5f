(** Cache-line padding for hot atomics.

    The memory plane's contended words — epoch cells, global-pool shard
    heads, per-thread announcement slots — are one-word blocks that the
    minor allocator would otherwise pack shoulder to shoulder, so every
    CAS on one invalidates the line under its neighbours (false
    sharing). [copy_as_padded] re-allocates a value into a block padded
    to {!pad_to_words} words (two 64-byte cache lines), giving each hot
    word a line of its own.

    Padded values are ordinary values: a padded [Atomic.t] is still an
    [Atomic.t] and every [Atomic] operation works on it unchanged.
    vbr-verify's raw-atomic rule recognises accesses routed through
    {!cell} (see DESIGN §2.13) so optimistic-scope code can touch padded
    bookkeeping atomics without a [\@vbr.allow] annotation. *)

val pad_to_words : int
(** Padded block size, in words (16 = two 64-byte cache lines). *)

val copy_as_padded : 'a -> 'a
(** [copy_as_padded v] returns a copy of [v] whose heap block is padded
    to {!pad_to_words} words. Total: values that are immediates, already
    at least {!pad_to_words} words, or of a special tag (closures,
    objects, lazies, floats/strings) are returned unchanged. The copy is
    shallow — fields still point at the originals. Copy {e before}
    publishing a value; aliases to the unpadded original defeat the
    point. *)

val atomic : 'a -> 'a Atomic.t
(** [atomic v] is [copy_as_padded (Atomic.make v)]: a fresh atomic on
    its own cache line. *)

val atomic_array : int -> 'a -> 'a Atomic.t array
(** [atomic_array n v] is an array of [n] {e independently padded}
    atomics each holding [v] — the shape for per-thread announcement
    slots, where neighbouring threads' slots must not share a line.
    (A plain [Array.init n (fun _ -> Atomic.make v)] packs all [n]
    one-word cells into [n+1] consecutive words.) *)

val cell : 'a Atomic.t -> 'a Atomic.t
(** Identity, as an annotation: marks an atomic access as touching
    padded plane bookkeeping (not a simulated node word). vbr-verify's
    raw-atomic rule exempts [Atomic.get (Padded.cell c)] and friends in
    optimistic scope. *)
