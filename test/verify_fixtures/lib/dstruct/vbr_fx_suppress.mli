(* Interface of the suppression-granularity fixture. *)

module Make (V : Fx_intf.OPT) : sig
  val m : Mutex.t
  val helper : V.ctx -> int -> int
  val lookup : V.t -> int -> int
  val to_list : int Atomic.t -> int
  val blocked : unit -> unit
  val op : V.t -> unit
end
