(* The node-layout confinement fixture: outside lib/memsim/node.ml, an
   Obj.magic to an Atomic.t and a direct use of Node.link0 are flagged in
   any file, not only the optimistic vbr_* structures. Node mirrors the
   real record's field 0. *)

module Node = struct
  type t = { mutable link0 : int; mutable key : int }
end

(* BAD: an atomic view of a node forged outside Node. *)
let forged (n : Node.t) : int Atomic.t = Obj.magic n

(* BAD: plain read of the level-0 next word. *)
let peek (n : Node.t) = n.link0

(* BAD: plain write of the level-0 next word. *)
let poke (n : Node.t) w = n.Node.link0 <- w

(* Good twins: other fields, and casts to non-atomic types. *)
let key (n : Node.t) = n.key
let set_key (n : Node.t) k = n.key <- k
let as_int (x : bool) : int = Obj.magic x
