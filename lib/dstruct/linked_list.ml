open Memsim

(* Protection slot assignment for the hand-over-hand traversal. *)
let slot_succ = 0
let slot_curr = 1
let slot_pred = 2

module Make (R : Reclaim.Smr_intf.S) = struct
  type t = { r : R.t; arena : Arena.t; head : int }

  let name = "list/" ^ R.name
  let hazard_slots = 3
  let make_tail r ~tid = R.alloc r ~tid ~level:1 ~key:Set_intf.max_key_bound

  let create ?tail r ~arena =
    let tail =
      match tail with Some i -> i | None -> make_tail r ~tid:0
    in
    let head = R.alloc r ~tid:0 ~level:1 ~key:Set_intf.min_key_bound in
    Access.set
      (Node.next0 (Arena.get arena head))
      (Packed.pack ~marked:false ~index:tail ~version:0);
    { r; arena; head }
  [@@vbr.allow "guard-extent"] (* single-threaded construction *)

  let next_word t i = Node.next0 (Arena.get t.arena i)
  let key_of t i = (Arena.get t.arena i).Node.key

  (* Arena indices are in range by construction. *)
  let word_to i = Packed.pack_unchecked ~marked:false ~index:i ~version:0

  (* Michael's Find: returns (pred, curr) with
     pred.key < key <= curr.key, both protected, and a flag for
     curr.key = key. Unlinks (and retires) marked nodes on the way; any
     anomaly restarts from the head. *)
  let rec find t ~tid key =
    let pred = t.head in
    (* [protect_read] keeps the per-hop load closure-free: the traversal
       is the benchmark's hot loop and must not touch the minor heap. *)
    let curr_w = R.protect_read t.r ~tid ~slot:slot_curr (next_word t pred) in
    walk t ~tid key pred (Packed.index curr_w)

  and walk t ~tid key pred curr =
    (* Invariant: pred is protected (slot_pred or head), curr is protected
       (slot_curr) and was pred's unmarked successor when protected. *)
    let cw = R.protect_read t.r ~tid ~slot:slot_succ (next_word t curr) in
    (* Re-validate the link; a change means pred or curr moved under us. *)
    let pv = Access.get (next_word t pred) in
    if Packed.index pv <> curr || Packed.is_marked pv then find t ~tid key
    else if Packed.is_marked cw then begin
      (* curr is logically deleted: unlink it or restart. *)
      let succ = Packed.index cw in
      if Access.compare_and_set (next_word t pred) pv (word_to succ) then begin
        R.retire t.r ~tid curr;
        R.transfer t.r ~tid ~src:slot_succ ~dst:slot_curr;
        walk t ~tid key pred succ
      end
      else find t ~tid key
    end
    else begin
      let k = key_of t curr in
      if k >= key then (pred, curr, k = key)
      else begin
        R.transfer t.r ~tid ~src:slot_curr ~dst:slot_pred;
        R.transfer t.r ~tid ~src:slot_succ ~dst:slot_curr;
        walk t ~tid key curr (Packed.index cw)
      end
    end

  let insert t ~tid key =
    R.begin_op t.r ~tid;
    let rec loop () =
      let pred, curr, found = find t ~tid key in
      if found then false
      else begin
        let n = R.alloc t.r ~tid ~level:1 ~key in
        Access.set (next_word t n) (word_to curr);
        if Access.compare_and_set (next_word t pred) (word_to curr) (word_to n)
        then true
        else begin
          R.dealloc t.r ~tid n;
          loop ()
        end
      end
    in
    let res = loop () in
    R.end_op t.r ~tid;
    res

  let delete t ~tid key =
    R.begin_op t.r ~tid;
    let rec loop () =
      let pred, curr, found = find t ~tid key in
      if not found then false
      else begin
        let cw = Access.get (next_word t curr) in
        if Packed.is_marked cw then loop ()
        else if Access.compare_and_set (next_word t curr) cw (Packed.set_mark cw)
        then begin
          (* Logical deletion done; unlink here or let a Find do it. *)
          if
            Access.compare_and_set (next_word t pred) (word_to curr)
              (word_to (Packed.index cw))
          then R.retire t.r ~tid curr
          else ignore (find t ~tid key);
          true
        end
        else loop ()
      end
    in
    let res = loop () in
    R.end_op t.r ~tid;
    res

  let contains t ~tid key =
    R.begin_op t.r ~tid;
    let _, _, found = find t ~tid key in
    R.end_op t.r ~tid;
    found

  (* Quiescent-only helpers. *)
  let to_list t =
    let rec go acc i =
      let w = Access.get (next_word t i) in
      let succ = Packed.index w in
      let k = key_of t i in
      let acc =
        if i <> t.head && k <> Set_intf.max_key_bound && not (Packed.is_marked w)
        then k :: acc
        else acc
      in
      if succ = 0 || k = Set_intf.max_key_bound then List.rev acc
      else go acc succ
    in
    go [] t.head
  [@@vbr.allow "guard-extent"]

  let size t = List.length (to_list t)
end
