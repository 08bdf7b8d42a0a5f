(* Interface of the measurement-layer clock fixture. *)

val now : unit -> float
