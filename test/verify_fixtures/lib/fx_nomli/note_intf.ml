(* mli-coverage, exempt: signature carriers named *_intf.ml need no
   .mli. *)

module type NOTE = sig
  val answer : int
end
