(* Interface of the Padded.cell exemption fixture. *)

type t = { hits : int Atomic.t }

val peek : t -> int
val bump : t -> unit
