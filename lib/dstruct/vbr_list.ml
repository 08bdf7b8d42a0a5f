(* Functorized over the optimistic capability so any backend satisfying
   Smr_intf.OPTIMISTIC (today Vbr_core.Vbr; tomorrow an ablation variant)
   reuses the Figure 3-6 integration unchanged. *)
module Make (V : Reclaim.Smr_intf.OPTIMISTIC) = struct
  module P = Memsim.Packed
  (* A list is its backend plus its head handle: one packed word whose
     index is the head sentinel's slot and whose version is that
     sentinel's birth. Sentinels are never retired, so the handle names
     the head, birth included, for the list's whole life; the [*_at]
     entry points below take it directly, which is how a hash table
     drives one list per bucket from a range of head sentinels. *)
  type t = { vbr : V.t; head : P.t }

  let name = "list/" ^ V.name

  let make_tail vbr =
    V.alloc_sentinels vbr ~n:1 ~key:Set_intf.max_key_bound ~next:0
      ~next_birth:0

  let create vbr =
    let tail, tail_birth = make_tail vbr in
    let head, head_birth =
      V.alloc_sentinels vbr ~n:1 ~key:Set_intf.min_key_bound ~next:tail
        ~next_birth:tail_birth
    in
    { vbr; head = P.pack ~marked:false ~index:head ~version:head_birth }

  (* Figure 3: the find auxiliary method. Raises Rollback on staleness;
     installed checkpoints live in the calling operation. Leaves
     (pred, pred_b, curr, curr_b, curr_key) with pred.key < key <=
     curr_key in the per-thread scratch plane (slots 0-4): returning a
     5-tuple would allocate six minor words per find, and on the
     Figure-2 update mix that allocation dominated the 8-thread
     stop-the-world minor-GC rendezvous.

     The hop primitive is [get_next_raw]: one validated load yields the
     node's own mark bit plus its successor's index, and the births the
     CASes will need (pred's and curr's) are recomputed by [get_birth]
     only at the stopping point — not one successor-birth node touch per
     hop. Using the raw mark in place of [is_marked], and a raw hop in
     place of the per-hop birth, is equivalent inside a checkpoint: a
     recycled node implies an epoch advance, which the next validated
     read turns into the same re-run that the eager birth check would
     have forced one step later. When [pred] is the head sentinel its
     birth comes from the head handle instead: it never changes, and
     the read of [curr]'s birth that follows still validates.

     All the traversal loops live at module level with their state
     threaded as arguments: an inner [let rec] would capture [c] and
     [key] in a fresh closure on every operation. *)
  let pred_birth head c pred =
    if pred = P.index head then P.version head else V.get_birth c pred
  [@@vbr.allow "checkpoint-scope"]

  let rec find_retry head c key =
    let h = P.index head in
    let curr = P.index (V.get_next_raw c ~lvl:0 h) in
    find_loop head c key h curr (V.get_key c curr)
  [@@vbr.allow "checkpoint-scope"]

  and find_loop head c key pred curr curr_key =
    let w = V.get_next_raw c ~lvl:0 curr in
    if P.is_marked w then begin
      (* Walk to the end of the marked segment, then trim it with one
         versioned update (Figure 3, lines 9-13) — rollback-safe. *)
      let succ = skip_marked c (P.index w) in
      if
        V.update c pred ~birth:(pred_birth head c pred) ~expected:curr
          ~expected_birth:(V.get_birth c curr) ~new_:succ
          ~new_birth:(V.get_birth c succ)
      then find_loop head c key pred succ (V.get_key c succ)
      else find_retry head c key
    end
    else if curr_key >= key then begin
      let s = V.scratch c in
      s.(0) <- pred;
      s.(1) <- pred_birth head c pred;
      s.(2) <- curr;
      s.(3) <- V.get_birth c curr;
      s.(4) <- curr_key
    end
    else
      let succ = P.index w in
      find_loop head c key curr succ (V.get_key c succ)
  [@@vbr.allow "checkpoint-scope"]

  and skip_marked c s =
    let sw = V.get_next_raw c ~lvl:0 s in
    if P.is_marked sw then skip_marked c (P.index sw) else s
  [@@vbr.allow "checkpoint-scope"]

  (* Figure 4. The body re-enters itself on a failed publishing CAS
     instead of an inner loop closure; its checkpoint is installed by
     [insert_at] below via the closure-free [checkpoint2]. *)
  let rec insert_body c head key =
    find_retry head c key;
    let s = V.scratch c in
    let pred = s.(0) and pred_b = s.(1) and succ = s.(2) and succ_b = s.(3) in
    if s.(4) = key then false
    else begin
      let n, n_b = V.alloc_ctx c ~level:1 key in
      (* Point the private node at succ before publishing. *)
      let ok =
        V.update c n ~birth:n_b ~expected:0 ~expected_birth:n_b ~new_:succ
          ~new_birth:succ_b
      in
      assert ok;
      if
        V.update c pred ~birth:pred_b ~expected:succ ~expected_birth:succ_b
          ~new_:n ~new_birth:n_b
      then begin
        V.commit_alloc c n;
        (* Figure 4, lines 12-13: checkpoint after the rollback-unsafe
           insertion — nothing left to roll back, so just refresh. *)
        V.refresh_epoch c;
        true
      end
      else begin
        V.retire_ctx c n ~birth:n_b;  (* Figure 4, line 15 *)
        insert_body c head key
      end
    end
  [@@vbr.allow "checkpoint-scope"]

  let insert_at vbr ~head ~tid key =
    V.checkpoint2 (V.ctx vbr ~tid) insert_body head key

  (* Figure 5. *)
  let rec delete_mark_loop c head key pred pred_b curr curr_b =
    if V.is_marked c curr ~birth:curr_b then false
    else if V.mark c curr ~birth:curr_b then begin
      (* Lines 11-16: the mark is the linearization point; the unlink,
         clean-up find and retire run under fresh checkpoints so a
         rollback cannot cross back over it. The successor is read after
         the mark: a marked word never changes again, so this is the
         successor the unlink must install. One read before the mark
         can be stale (an insert after [curr], or the unlink of [curr]'s
         successor, may land in between), and unlinking to it drops the
         inserted node or re-links a retired one. The retire has its own
         checkpoint, so a rollback it raises re-runs only the retire,
         which is then a no-op. These closures are per successful
         delete, not per hop. *)
      V.checkpoint c (fun () ->
          let succ, succ_b = V.get_next c curr in
          if
            not
              (V.update c pred ~birth:pred_b ~expected:curr
                 ~expected_birth:curr_b ~new_:succ ~new_birth:succ_b)
          then find_retry head c key);
      V.checkpoint c (fun () -> V.retire_ctx c curr ~birth:curr_b);
      true
    end
    else delete_mark_loop c head key pred pred_b curr curr_b
  [@@vbr.allow "checkpoint-scope"]

  let delete_body c head key =
    find_retry head c key;
    let s = V.scratch c in
    let pred = s.(0) and pred_b = s.(1) and curr = s.(2) and curr_b = s.(3) in
    if s.(4) <> key then false
    else delete_mark_loop c head key pred pred_b curr curr_b
  [@@vbr.allow "checkpoint-scope"]

  let delete_at vbr ~head ~tid key =
    V.checkpoint2 (V.ctx vbr ~tid) delete_body head key

  (* Figure 6. Wait-free readers need only the successor index per hop
     plus the final node's mark — exactly what [get_next_raw] carries, so
     the scan is allocation-free and skips the successor-birth recompute
     the CAS-bound traversals pay. *)
  let rec contains_loop c key curr curr_key =
    if curr_key < key then
      let succ = P.index (V.get_next_raw c ~lvl:0 curr) in
      contains_loop c key succ (V.get_key c succ)
    else curr_key = key && not (P.is_marked (V.get_next_raw c ~lvl:0 curr))
  [@@vbr.allow "checkpoint-scope"]

  let contains_body c head key =
    let curr = P.index (V.get_next_raw c ~lvl:0 (P.index head)) in
    contains_loop c key curr (V.get_key c curr)
  [@@vbr.allow "checkpoint-scope"]

  let contains_at vbr ~head ~tid key =
    V.checkpoint2 (V.ctx vbr ~tid) contains_body head key

  (* Quiescent-only helpers. *)
  let to_list_at vbr ~head =
    let arena = V.arena vbr in
    let head = P.index head in
    let rec go acc i =
      let w = Atomic.get (Memsim.Node.next0 (Memsim.Arena.get arena i)) in
      let k = (Memsim.Arena.get arena i).Memsim.Node.key in
      if k = Set_intf.max_key_bound then List.rev acc
      else begin
        let acc =
          if i <> head && not (Memsim.Packed.is_marked w) then k :: acc
          else acc
        in
        go acc (Memsim.Packed.index w)
      end
    in
    go [] head
  [@@vbr.allow "raw-atomic"]

  let insert t ~tid key = insert_at t.vbr ~head:t.head ~tid key
  let delete t ~tid key = delete_at t.vbr ~head:t.head ~tid key
  let contains t ~tid key = contains_at t.vbr ~head:t.head ~tid key
  let to_list t = to_list_at t.vbr ~head:t.head
  let size t = List.length (to_list t)
end

include Make (Vbr_core.Vbr)
