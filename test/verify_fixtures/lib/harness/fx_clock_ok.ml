(* determinism, clean: lib/harness is the measurement layer, so the
   same wall-clock read as bench/fx_time.ml is not flagged here. *)

let now () = Unix.gettimeofday ()
