module Make (V : Reclaim.Smr_intf.OPTIMISTIC) = struct
  module P = Memsim.Packed

  let max_level = Skiplist.max_level

  exception Restart

  type t = {
    vbr : V.t;
    head : int;
    head_b : int;
    tail : int;
    tail_b : int;
    rngs : int array;  (* per-thread xorshift state for tower heights *)
  }

  let name = "skiplist/" ^ V.name

  let create vbr =
    let c = V.ctx vbr ~tid:0 in
    V.checkpoint c (fun () ->
        let tail, tail_b = V.alloc vbr ~tid:0 ~level:max_level ~key:Set_intf.max_key_bound in
        let head, head_b = V.alloc vbr ~tid:0 ~level:max_level ~key:Set_intf.min_key_bound in
        for l = 0 to max_level - 1 do
          let ok =
            V.update c ~lvl:l head ~birth:head_b ~expected:0
              ~expected_birth:head_b ~new_:tail ~new_birth:tail_b
          in
          assert ok
        done;
        (* Commit both sentinels only once the tower is wired: a rollback
           anywhere above recycles them and re-runs the thunk, instead of
           leaking a committed-but-unreachable tail. *)
        V.commit_alloc c tail;
        V.commit_alloc c head;
        {
          vbr;
          head;
          head_b;
          tail;
          tail_b;
          rngs = Array.init 1024 (fun i -> (i * 0x9E3779B9) lor 1);
        })

  let random_level t ~tid =
    let x = t.rngs.(tid) in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = (x lxor (x lsl 17)) land max_int in
    t.rngs.(tid) <- x;
    let rec count lvl bits =
      if lvl >= max_level || bits land 1 = 0 then lvl else count (lvl + 1) (bits lsr 1)
    in
    count 1 x

  (* The find traversal: latches (pred, succ) with their birth epochs at
     every level, snipping marked nodes one at a time with versioned
     updates. Failed snips restart the traversal; stale reads raise
     [V.Rollback], which propagates to the operation's checkpoint. *)
  let rec find t c key preds preds_b succs succs_b =
    match find_attempt t c key preds preds_b succs succs_b with
    | found -> found
    | exception Restart -> find t c key preds preds_b succs succs_b

  and find_attempt t c key preds preds_b succs succs_b =
    let found = ref false in
    let pred = ref t.head and pred_b = ref t.head_b in
    for l = max_level - 1 downto 0 do
      let w = V.get_next_packed c ~lvl:l !pred in
      let curr = ref (P.index w) and curr_b = ref (P.version w) in
      let at_level = ref true in
      while !at_level do
        if V.is_marked c ~lvl:l !curr ~birth:!curr_b then begin
          (* Snip the marked node from this level (rollback-safe). *)
          let sw = V.get_next_packed c ~lvl:l !curr in
          let succ = P.index sw and succ_b = P.version sw in
          if
            V.update c ~lvl:l !pred ~birth:!pred_b ~expected:!curr
              ~expected_birth:!curr_b ~new_:succ ~new_birth:succ_b
          then begin
            curr := succ;
            curr_b := succ_b
          end
          else begin
            (* A failed snip may be hitting a garbage edge that no versioned
               CAS can remove (inserter/remover race, DESIGN.md §5): heal it
               by truncating this level towards the tail, then restart. *)
            if l > 0 then
              ignore
                (V.heal_stale_edge c ~lvl:l !pred ~birth:!pred_b ~to_:t.tail
                   ~to_birth:t.tail_b);
            raise Restart
          end
        end
        else begin
          let k = V.get_key c !curr in
          if k < key then begin
            pred := !curr;
            pred_b := !curr_b;
            let sw = V.get_next_packed c ~lvl:l !curr in
            curr := P.index sw;
            curr_b := P.version sw
          end
          else begin
            preds.(l) <- !pred;
            preds_b.(l) <- !pred_b;
            succs.(l) <- !curr;
            succs_b.(l) <- !curr_b;
            if l = 0 then found := k = key;
            at_level := false
          end
        end
      done
    done;
    !found

  let rec insert t ~tid key =
    let c = V.ctx t.vbr ~tid in
    let preds = Array.make max_level 0 and succs = Array.make max_level 0 in
    let preds_b = Array.make max_level 0 and succs_b = Array.make max_level 0 in
    V.checkpoint c (fun () ->
        let rec attempt () =
          if find t c key preds preds_b succs succs_b then false
          else begin
            let lvl = random_level t ~tid in
            let n, n_b = V.alloc t.vbr ~tid ~level:lvl ~key in
            for l = 0 to lvl - 1 do
              (* Private initialisation towards the latched successors. *)
              let ok =
                V.update c ~lvl:l n ~birth:n_b ~expected:0 ~expected_birth:n_b
                  ~new_:succs.(l) ~new_birth:succs_b.(l)
              in
              assert ok
            done;
            if
              V.update c ~lvl:0
                preds.(0)
                ~birth:preds_b.(0) ~expected:succs.(0) ~expected_birth:succs_b.(0)
                ~new_:n ~new_birth:n_b
            then begin
              (* Linearized. Upper-level linking is rollback-safe and runs
                 under its own checkpoint (Figure 4's post-CAS checkpoint). *)
              V.commit_alloc c n;
              V.checkpoint c (fun () -> link_upper t c key n n_b lvl 1 preds preds_b succs succs_b);
              true
            end
            else begin
              V.retire t.vbr ~tid (n, n_b);
              attempt ()
            end
          end
        in
        attempt ())

  and link_upper t c key n n_b lvl l preds preds_b succs succs_b =
    if l >= lvl then begin
      (* Fraser amendment: if the node was marked while we were linking,
         unlink it from every level before returning. *)
      if V.is_marked c ~lvl:0 n ~birth:n_b then
        ignore (find t c key preds preds_b succs succs_b)
    end
    else if succs.(l) = n && succs_b.(l) = n_b then
      (* A refresh found n already linked at this level. *)
      link_upper t c key n n_b lvl (l + 1) preds preds_b succs succs_b
    else begin
      (* Reading n's level-l word validates the epoch and exposes the mark;
         the index/version it holds may be stale (see below). *)
      let nw_marked = P.is_marked (V.get_next_packed c ~lvl:l n) in
      if nw_marked || V.is_marked c ~lvl:0 n ~birth:n_b then
        (* n is being removed: help the unlink and stop. *)
        ignore (find t c key preds preds_b succs succs_b)
      else begin
        (* Unconditionally re-aim n's forward pointer at the *currently
           latched* (succ, birth) pair, raw-expected. This both follows
           refreshed succs and repairs a version-stale word: if the
           previously aimed successor was recycled and the refreshed find
           latched the same slot again, the stored version (computed from
           the old birth) would make every future versioned snip of this
           edge fail forever — a livelock our stress tests caught. *)
        if
          not
            (V.refresh_next c ~lvl:l n ~birth:n_b ~new_:succs.(l)
               ~new_birth:succs_b.(l))
        then
          (* Marked or recycled meanwhile: help and stop. *)
          ignore (find t c key preds preds_b succs succs_b)
        else begin
          (* The upper-level link is the one CAS whose success does not
             certify its NEW value: the expected word pins pred -> succ, but
             n has no in-edge at this level yet, so n may have been retired
             and even recycled in the window since we last validated it
             (every other CAS in this repository installs a new value whose
             reachability the expected chain certifies — see DESIGN.md).
             Defence in depth: a cheap pre-check shrinks the window, and a
             post-CAS certification repairs the rare escape: if n's birth is
             unchanged and its retire epoch is still ⊥ *after* the install,
             then n was unretired at install time and the edge is sound;
             otherwise we unlink the garbage edge, truncating this level at
             pred towards the tail sentinel (upper levels are navigation
             hints, so truncation is performance-only). Without the repair,
             a stale edge can form a cycle at an upper level, and once every
             thread spins in it the epoch freezes and rollbacks stop
             firing. *)
          if V.read_birth t.vbr n <> n_b then ()
          else begin
            V.validate_epoch c;
            if
              V.update c ~lvl:l
                preds.(l)
                ~birth:preds_b.(l) ~expected:succs.(l)
                ~expected_birth:succs_b.(l) ~new_:n ~new_birth:n_b
            then begin
              (* Certification needs all three: birth unchanged and retire
                 still ⊥ pin n as unretired at install time; *unmarked at
                 this level* guarantees the remover's mark — which precedes
                 its unlinking find — comes after our install, so that find
                 will see and snip this edge before n is retired. An edge
                 kept without the mark check can be missed by a find that
                 ran before the install, letting n be retired while still
                 linked here — the recycled slot then leaves behind a
                 garbage edge. *)
              if
                V.read_birth t.vbr n = n_b
                && V.read_retire t.vbr n = Memsim.Node.no_epoch
                && not (V.is_marked c ~lvl:l n ~birth:n_b)
              then link_upper t c key n n_b lvl (l + 1) preds preds_b succs succs_b
              else
                (* We linked a retired (possibly recycled) slot: undo this
                   one edge. If the undo CAS fails, someone else already
                   changed the edge, which is just as good. *)
                ignore
                  (V.update c ~lvl:l
                     preds.(l)
                     ~birth:preds_b.(l) ~expected:n ~expected_birth:n_b
                     ~new_:t.tail ~new_birth:t.tail_b)
            end
            else begin
              (* Stale preds/succs at this level: recompute and retry. *)
              ignore (find t c key preds preds_b succs succs_b);
              if V.is_marked c ~lvl:0 n ~birth:n_b then ()
              else link_upper t c key n n_b lvl l preds preds_b succs succs_b
            end
          end
        end
      end
    end

  let delete t ~tid key =
    let c = V.ctx t.vbr ~tid in
    let preds = Array.make max_level 0 and succs = Array.make max_level 0 in
    let preds_b = Array.make max_level 0 and succs_b = Array.make max_level 0 in
    V.checkpoint c (fun () ->
        if not (find t c key preds preds_b succs succs_b) then false
        else begin
          let victim = succs.(0) and victim_b = succs_b.(0) in
          let vlvl = V.read_level t.vbr victim in
          (* Mark upper levels top-down (idempotent across removers,
             rollback-safe). *)
          for l = vlvl - 1 downto 1 do
            let rec mark_level () =
              if not (V.is_marked c ~lvl:l victim ~birth:victim_b) then
                if not (V.mark c ~lvl:l victim ~birth:victim_b) then
                  mark_level ()
            in
            mark_level ()
          done;
          (* Bottom-level mark: the winner is the logical remover and owns
             the retirement (after a full unlinking find). *)
          let rec mark_bottom () =
            if V.is_marked c ~lvl:0 victim ~birth:victim_b then false
            else if V.mark c ~lvl:0 victim ~birth:victim_b then begin
              V.checkpoint c (fun () ->
                  ignore (find t c key preds preds_b succs succs_b);
                  V.retire t.vbr ~tid (victim, victim_b));
              true
            end
            else mark_bottom ()
          in
          mark_bottom ()
        end)

  (* Read-only traversal in the spirit of Figure 6: skip logically deleted
     nodes without trimming; the first unmarked node with key >= target
     decides membership. Like the list's [contains], the hop primitive is
     [get_next_raw] — the stored word's index and mark bit are all a
     reader needs — and the loops are module-level recursions threading
     scalar state, so the whole scan is allocation-free (the old version
     paid a closure plus six [ref] cells per call). The packed mark bit
     replaces [is_marked]'s birth check: a recycled node implies an epoch
     advance, which the validated read turns into the same rollback. *)
  let rec contains_down c key pred l =
    contains_walk c key pred l (P.index (V.get_next_raw c ~lvl:l pred))

  and contains_walk c key pred l curr =
    let w = V.get_next_raw c ~lvl:l curr in
    if P.is_marked w then contains_walk c key pred l (P.index w)
    else
      let k = V.get_key c curr in
      if k < key then contains_walk c key curr l (P.index w)
      else if l = 0 then k = key
      else contains_down c key pred (l - 1)

  let contains_body c t key = contains_down c key t.head (max_level - 1)

  let contains t ~tid key =
    let c = V.ctx t.vbr ~tid in
    V.checkpoint2 c contains_body t key

  (* Quiescent-only helpers: walk the bottom level. *)
  let to_list t =
    let arena = V.arena t.vbr in
    let rec go acc i =
      let n = Memsim.Arena.get arena i in
      let w = Atomic.get (Memsim.Node.next0 n) in
      let k = n.Memsim.Node.key in
      if k = Set_intf.max_key_bound then List.rev acc
      else begin
        let acc =
          if i <> t.head && not (Memsim.Packed.is_marked w) then k :: acc
          else acc
        in
        go acc (Memsim.Packed.index w)
      end
    in
    go [] t.head
  [@@vbr.allow "raw-atomic"]

  let size t = List.length (to_list t)
end

include Make (Vbr_core.Vbr)
