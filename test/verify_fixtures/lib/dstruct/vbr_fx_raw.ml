(* raw-atomic, the plain case: a vbr_* module reading a shared word with
   a raw Atomic op. Flagged at the Atomic.get line. *)

type t = { head : int Atomic.t }

let peek t = Atomic.get t.head
