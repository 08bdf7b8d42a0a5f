(** The optimistic-reclamation hash table: a fixed array of bucket
    head-sentinel slots, each the head of a {!Vbr_list} chain, all chains
    sharing one tail sentinel and one backend instance (§5, load factor
    1). Operations run {!Vbr_list}'s head-slot entry points directly. *)

module Make (V : Reclaim.Smr_intf.OPTIMISTIC) : sig
  type t

  val create : V.t -> buckets:int -> t
  (** @raise Invalid_argument if [buckets < 1]. *)

  include Set_intf.SET with type t := t
end

include module type of Make (Vbr_core.Vbr)
(** The canonical instantiation over {!Vbr_core.Vbr} ("hash/VBR"). *)
