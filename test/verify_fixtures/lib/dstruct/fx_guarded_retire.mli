(* Interface of the retire-discipline fixtures. *)

module Make (R : Fx_intf.GUARD) : sig
  val bad_retire : R.t -> tid:int -> int -> unit
  val bad_dealloc : R.t -> tid:int -> int -> unit
  val good_retire : R.t -> tid:int -> int Atomic.t -> int -> unit
  val good_dealloc : R.t -> tid:int -> unit
end
