(* Interface of the retire-taint fixtures. *)

module Make (V : Fx_intf.OPT) : sig
  val read_next : V.ctx -> int -> int
  val remove : V.t -> int -> int
  val remove_direct : V.t -> int -> int
  val remove_ok : V.t -> int -> int -> int
end
