(* Clean: lib/memsim/node.ml is where the level-0 word cast lives. *)

type t = { mutable link0 : int; mutable key : int }

let make () = { link0 = 0; key = 0 }
let next0 (n : t) : int Atomic.t = Obj.magic n
let link0 n = n.link0
