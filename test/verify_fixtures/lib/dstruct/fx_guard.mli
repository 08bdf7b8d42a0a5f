(* Interface of the guard-extent fixtures. *)

type t = { words : int Atomic.t array; head : int }

val next_word : t -> int -> int Atomic.t
val traverse : t -> int -> int
val contains : t -> int -> int
val bad : t -> int -> int

module MakeGuarded (R : Fx_intf.GUARD) : sig
  val traverse_ok : t -> int -> int
  val contains_ok : R.t -> t -> int -> int
  val good : R.t -> t -> tid:int -> int -> int
end
