(* The raw-atomic false-negative fixture: both uses below bypass the
   versioned plane, but neither spells the literal path "Atomic.op", so
   a parse-tree matcher sees nothing. vbr-verify resolves through the
   typed tree -- the alias via the file-local module-alias table, the
   open because the compiler already recorded the canonical path
   Stdlib.Atomic.get -- and flags both. *)

module A = Atomic
open Atomic

(* BAD (typed only): the alias hides the path syntactically. *)
let read_aliased (r : int A.t) = A.get r

(* BAD (typed only): the open removes the qualifier entirely. *)
let read_opened (r : int Atomic.t) = get r
