(* Interface of the plain raw-atomic fixture. *)

type t

val peek : t -> int
