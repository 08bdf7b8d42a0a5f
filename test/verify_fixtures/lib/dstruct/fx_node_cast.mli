(* Interface of the node-layout confinement fixture. *)

module Node : sig
  type t = { mutable link0 : int; mutable key : int }
end

val forged : Node.t -> int Atomic.t
val peek : Node.t -> int
val poke : Node.t -> int -> unit
val key : Node.t -> int
val set_key : Node.t -> int -> unit
val as_int : bool -> int
