(* guard-extent fixtures (Guarded scope: no vbr_ prefix). The first bad
   shape is the "guard dropped before the extracted traversal" refactor:
   the hand-over-hand reads moved into [traverse], and the public op
   calls it with no begin_op/end_op bracket on any chain. The second is
   a node-word read with no caller at all, so nothing can cover it. The
   good twins are the harris_list idiom -- the same extracted
   traversal, covered because its only caller engages the guard -- and
   a read in a body that engages the plane itself through protect. *)

type t = { words : int Atomic.t array; head : int }

let next_word t i = t.words.(i)

(* BAD: flagged at the Atomic.get line. *)
let traverse t i = Atomic.get (next_word t i)
let contains t key = traverse t (t.head + key)

(* BAD: flagged at the Atomic.get line; nothing calls it. *)
let bad t i = Atomic.get (next_word t i)

module MakeGuarded (R : Fx_intf.GUARD) = struct
  (* GOOD: identical traversal, covered by the bracketing caller. *)
  let traverse_ok t i = Atomic.get (next_word t i)

  let contains_ok r t key =
    R.begin_op r ~tid:0;
    let v = traverse_ok t (t.head + key) in
    R.end_op r ~tid:0;
    v

  (* GOOD: the body engages the plane itself. *)
  let good r t ~tid i =
    let j = R.protect r ~tid i in
    Atomic.get (next_word t j)
end
