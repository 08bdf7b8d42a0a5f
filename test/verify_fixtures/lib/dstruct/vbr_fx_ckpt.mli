(* Interface of the checkpoint-dominance fixtures. *)

module Make (V : Fx_intf.OPT) : sig
  val helper : V.ctx -> int -> int
  val lookup : V.t -> int -> int
  val helper_ok : V.ctx -> int -> int
  val lookup_ok : V.t -> int -> int
  val publish : V.t -> int * int
  val probe : V.ctx -> int -> int * int
end
