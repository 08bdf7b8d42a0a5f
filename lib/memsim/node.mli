(** The simulated data-structure node.

    One node per arena slot. Slots are type-preserving (§2 of the paper): a
    slot is created once with a fixed tower height ({!level}) and is reused
    for its whole life with that same shape, so a stale reader always finds
    a structurally valid node — possibly with recycled contents, which is
    exactly the hazard the reclamation schemes must handle.

    The record is five fields, six words with its header, so a list node
    (empty [upper]) sits in the 6-word size class; the tower height is
    derived from [upper] rather than stored (see {!level}).

    Field roles:
    - [link0]: the level-0 packed next word ({!Packed}), stored inline as
      field 0 so that a hop reads the next word and the key from one
      block. Never read or write it as a record field: {!next0} is its
      only access path (vbr-verify's raw-atomic rule flags any other).
    - [key]: the immutable-per-lifecycle key. Written only between
      allocation and publication; stale readers may observe a recycled
      value, which VBR detects via the epoch check.
    - [birth], [retire]: the birth/retire epochs (or eras, for HE/IBR).
      [retire = no_epoch] means "not retired" (the paper's ⊥).
    - [upper]: the packed next words of tower levels 1 .. [level - 1].
      Lists use level 1, whose nodes all share one empty array; skiplist
      towers have geometric height. The height itself is
      [1 + Array.length upper] ({!level}). *)

type t = {
  mutable link0 : int;  (** level-0 next word; use {!next0}, never directly *)
  mutable key : int;
  birth : int Atomic.t;
  retire : int Atomic.t;
  upper : int Atomic.t array;  (** length [level - 1]; packed words *)
}

val no_epoch : int
(** The ⊥ retire epoch (-1). Global epochs start at 1, so every real epoch
    compares greater than [no_epoch]. *)

val make : level:int -> t
(** A fresh node: [key = 0], [birth = 0], [retire = no_epoch], every next
    word [Packed.null].
    @raise Invalid_argument if [level < 1]. *)

val level : t -> int
(** Tower height, [1 + Array.length n.upper]. Fixed at slot creation, so
    even a stale read is exact. *)

val next0 : t -> int Atomic.t
(** The level-0 next word — the only one for list nodes. It is the node
    block itself viewed as an [int Atomic.t] (field 0 is [link0]), so
    every [Atomic] and {!Access} operation on it targets [link0] and its
    physical identity is the node's. *)

val word : t -> int -> int Atomic.t
(** [word n lvl] is the packed next word of tower level [lvl]:
    [next0 n] for level 0, an element of [upper] above.
    @raise Invalid_argument unless [0 <= lvl < level n]. *)

val iter_words : t -> (int Atomic.t -> unit) -> unit
(** [iter_words n f] applies [f] to every next word of [n], level 0
    first. *)

val pp : Format.formatter -> t -> unit
(** Debug printer. *)
