(* determinism: wall-clock reads outside the measurement layer. Both
   are flagged at the read. *)

let now () = Unix.gettimeofday ()

(* The alias hides the path from a parse-tree matcher, not from the
   typed tree. *)
module U = Unix

let now_aliased () = U.time ()
