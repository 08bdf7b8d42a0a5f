(* mli-coverage: a lib/ module with no sibling .mli. Flagged at line 1. *)

let answer = 42
