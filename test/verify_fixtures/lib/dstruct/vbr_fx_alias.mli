(* Interface of the raw-atomic alias/open fixture. *)

val read_aliased : int Atomic.t -> int
val read_opened : int Atomic.t -> int
