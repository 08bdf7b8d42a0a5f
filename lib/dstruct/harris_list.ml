open Memsim

module Make (R : Reclaim.Smr_intf.S) = struct
  type t = { r : R.t; arena : Arena.t; head : int; tail : int }

  let name = "harris/" ^ R.name

  let create r ~arena =
    let tail = R.alloc r ~tid:0 ~level:1 ~key:Set_intf.max_key_bound in
    let head = R.alloc r ~tid:0 ~level:1 ~key:Set_intf.min_key_bound in
    Access.set
      (Node.next0 (Arena.get arena head))
      (Packed.pack ~marked:false ~index:tail ~version:0);
    { r; arena; head; tail }
  [@@vbr.allow "guard-extent"] (* single-threaded construction *)

  let next_word t i = Node.next0 (Arena.get t.arena i)
  let key_of t i = (Arena.get t.arena i).Node.key
  (* Arena indices are in range by construction. *)
  let word_to i = Packed.pack_unchecked ~marked:false ~index:i ~version:0

  (* Harris's search: returns (left, right) where right is the first node
     with an unmarked next word and key >= [key], and left is its last
     unmarked predecessor. Snips (and retires) the marked segment between
     them when there is one. *)
  let rec search t ~tid key =
    let left = ref t.head in
    let left_next = ref Packed.null in
    (* One do-while step: record (left, left_next) at every unmarked next
       word, then follow the pointer — through marked nodes — until the
       first node whose next is unmarked and whose key reaches [key]. *)
    let rec step cursor cursor_next =
      if not (Packed.is_marked cursor_next) then begin
        left := cursor;
        left_next := cursor_next
      end;
      let nxt = Packed.index cursor_next in
      if nxt = t.tail then nxt
      else begin
        let nn = Access.get (next_word t nxt) in
        if Packed.is_marked nn || key_of t nxt < key then step nxt nn
        else nxt
      end
    in
    let right = step t.head (Access.get (next_word t t.head)) in
    if Packed.index !left_next = right then
      if right <> t.tail && Packed.is_marked (Access.get (next_word t right))
      then search t ~tid key
      else (!left, right)
    else if
      (* Snip the whole marked segment in one CAS. *)
      Access.compare_and_set (next_word t !left) !left_next (word_to right)
    then begin
      (* The snipper retires every node of the segment exactly once. *)
      let rec retire_segment i =
        if i <> right then begin
          let nxt = Packed.index (Access.get (next_word t i)) in
          R.retire t.r ~tid i;
          retire_segment nxt
        end
      in
      retire_segment (Packed.index !left_next);
      if right <> t.tail && Packed.is_marked (Access.get (next_word t right))
      then search t ~tid key
      else (!left, right)
    end
    else search t ~tid key
  (* Harris traversal reads raw words by design: the caller's begin_op
     pins the epoch (EBR) for the whole operation, so no per-node protect
     happens inside this helper (vbr-verify's guard-extent proves every
     caller brackets it). *)

  let insert t ~tid key =
    R.begin_op t.r ~tid;
    let rec loop () =
      let left, right = search t ~tid key in
      if right <> t.tail && key_of t right = key then false
      else begin
        let n = R.alloc t.r ~tid ~level:1 ~key in
        Access.set (next_word t n) (word_to right);
        if Access.compare_and_set (next_word t left) (word_to right) (word_to n)
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
      let left, right = search t ~tid key in
      if right = t.tail || key_of t right <> key then false
      else begin
        let rn = Access.get (next_word t right) in
        if Packed.is_marked rn then loop ()
        else if
          Access.compare_and_set (next_word t right) rn (Packed.set_mark rn)
        then begin
          (* Try the quick one-node snip; otherwise a future search will
             trim (and retire) the segment. *)
          if
            Access.compare_and_set (next_word t left) (word_to right)
              (word_to (Packed.index rn))
          then R.retire t.r ~tid right
          else ignore (search t ~tid key);
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
    let _, right = search t ~tid key in
    let res = right <> t.tail && key_of t right = key in
    R.end_op t.r ~tid;
    res

  (* Quiescent-only helpers. *)
  let to_list t =
    let rec go acc i =
      if i = t.tail then List.rev acc
      else begin
        let w = Access.get (next_word t i) in
        let acc =
          if i <> t.head && not (Packed.is_marked w) then key_of t i :: acc
          else acc
        in
        go acc (Packed.index w)
      end
    in
    go [] t.head
  [@@vbr.allow "guard-extent"]

  let size t = List.length (to_list t)
end
