(* Interface of the blocking-in-critical-section fixtures. *)

module Make (V : Fx_intf.OPT) : sig
  val m : Mutex.t
  val helper2 : unit -> unit
  val helper1 : unit -> unit
  val op : V.t -> unit
  val op_ok : unit -> unit
end
