(* Interface of the exempt node-layout fixture. *)

type t = { mutable link0 : int; mutable key : int }

val make : unit -> t
val next0 : t -> int Atomic.t
val link0 : t -> int
