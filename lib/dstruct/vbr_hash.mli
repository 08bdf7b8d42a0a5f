(** The optimistic-reclamation hash table: a contiguous range of bucket
    head sentinels, each the head of a {!Vbr_list} chain, all chains
    sharing one tail sentinel and one backend instance (§5, load factor
    1). Bucket [b]'s head is slot [base + b]; operations run
    {!Vbr_list}'s head-handle entry points directly. *)

module Make (V : Reclaim.Smr_intf.OPTIMISTIC) : sig
  type t

  val create : V.t -> buckets:int -> t
  (** @raise Invalid_argument if [buckets < 1].
      @raise Memsim.Arena.Exhausted if the arena cannot hold the
      [buckets + 1] sentinels. *)

  val head : t -> int -> Memsim.Packed.t
  (** [head t key] is the head handle of [key]'s bucket
      ({!Vbr_list.Make.insert_at}): index [base + key mod buckets]
      (non-negative residue), version the sentinels' common birth. *)

  include Set_intf.SET with type t := t
end

include module type of Make (Vbr_core.Vbr)
(** The canonical instantiation over {!Vbr_core.Vbr} ("hash/VBR"). *)
