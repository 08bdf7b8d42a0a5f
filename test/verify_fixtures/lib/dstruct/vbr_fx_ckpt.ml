(* checkpoint-dominance fixtures. The bad helper is the "checkpoint
   moved to the callee and then lost" refactor: the optimistic read
   itself is uncovered, and no call chain installs a checkpoint. The
   good twin has the identical helper shape, proven safe because its
   only caller wraps the call. [publish] seeds the post-publish
   protocol violation: an optimistic read after commit_alloc with no
   refresh_epoch/checkpoint in between. [probe] is the plainest case:
   an optimistic read that nothing calls. *)

module Make (V : Fx_intf.OPT) = struct
  (* BAD: flagged at the V.get_key line. *)
  let helper c key = V.get_key c key

  let lookup (t : V.t) key =
    let c = V.ctx t ~tid:0 in
    helper c key

  (* GOOD: same helper, every call chain installs the checkpoint. *)
  let helper_ok c key = V.get_key c key

  let lookup_ok (t : V.t) key =
    let c = V.ctx t ~tid:0 in
    V.checkpoint c (fun () -> helper_ok c key)

  (* BAD: flagged at the V.get_next line (rollback would re-run the
     publishing path). *)
  let publish (t : V.t) =
    let c = V.ctx t ~tid:0 in
    V.checkpoint c (fun () ->
        let n, _b = V.alloc c in
        if V.update c n ~new_:n then V.commit_alloc c n;
        V.get_next c n)

  (* BAD: flagged at the V.get_next line; no caller installs a
     checkpoint because there is no caller. *)
  let probe c n = V.get_next c n
end
