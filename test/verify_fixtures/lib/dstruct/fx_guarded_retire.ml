(* retire-discipline fixtures (Guarded scope). A retire with no mark or
   CAS before it in the same function, and a dealloc of a node the
   function did not allocate, are flagged; the disciplined twins are
   clean. *)

module Make (R : Fx_intf.GUARD) = struct
  (* BAD: flagged at the R.retire line. *)
  let bad_retire r ~tid n = R.retire r ~tid n

  (* BAD: flagged at the R.dealloc line. *)
  let bad_dealloc r ~tid n = R.dealloc r ~tid n

  (* GOOD: the unlink CAS witnesses the retire. *)
  let good_retire r ~tid w n =
    if Atomic.compare_and_set w 0 1 then R.retire r ~tid n

  (* GOOD: never published, freed by the operation that allocated it. *)
  let good_dealloc r ~tid =
    let n = R.alloc r ~tid ~level:1 ~key:0 in
    R.dealloc r ~tid n
end
