(* retire-taint fixtures: retire-then-deref split across a helper (the
   taint flows through the call into the helper's dereferencing
   parameter) and the same bug in one function. The good twin retires
   one node and keeps traversing from a different one. Every retire
   follows its unlink, so retire-discipline stays quiet here. *)

module Make (V : Fx_intf.OPT) = struct
  (* dereferences its node argument *)
  let read_next c n = fst (V.get_next c n)

  (* BAD: flagged at the read_next call. *)
  let remove (t : V.t) n =
    let c = V.ctx t ~tid:0 in
    V.checkpoint c (fun () ->
        if V.update c n ~new_:0 then V.retire c (n, 0);
        read_next c n)

  (* BAD: flagged at the V.get_key line (same-function use-after-retire). *)
  let remove_direct (t : V.t) n =
    let c = V.ctx t ~tid:0 in
    V.checkpoint c (fun () ->
        if V.update c n ~new_:0 then V.retire c (n, 0);
        V.get_key c n)

  (* GOOD: the retired node is dead; traversal continues elsewhere. *)
  let remove_ok (t : V.t) n nxt =
    let c = V.ctx t ~tid:0 in
    V.checkpoint c (fun () ->
        if V.update c n ~new_:0 then V.retire c (n, 0);
        read_next c nxt)
end
