open Memsim

let slot_target = 0
let slot_succ = 1

module Make (R : Reclaim.Smr_intf.S) = struct
  type t = {
    r : R.t;
    arena : Arena.t;
    head : int Atomic.t;  (* packed words; version always 0 here *)
    tail : int Atomic.t;
  }

  let name = "queue/" ^ R.name
  let hazard_slots = 2

  (* Arena indices are in range by construction. *)
  let word_to i = Packed.pack_unchecked ~marked:false ~index:i ~version:0

  let create r ~arena =
    let dummy = R.alloc r ~tid:0 ~level:1 ~key:0 in
    { r; arena; head = Atomic.make (word_to dummy); tail = Atomic.make (word_to dummy) }

  let next_word t i = Node.next0 (Arena.get t.arena i)

  let enqueue t ~tid v =
    R.begin_op t.r ~tid;
    let n = R.alloc t.r ~tid ~level:1 ~key:v in
    let rec loop () =
      let tw = R.protect_read t.r ~tid ~slot:slot_target t.tail in
      let tl = Packed.index tw in
      let nw = Access.get (next_word t tl) in
      let nt = Packed.index nw in
      if nt = 0 then begin
        if Access.compare_and_set (next_word t tl) nw (word_to n) then
          (* Linearized; swing the tail (losing the race is fine). *)
          ignore (Access.compare_and_set t.tail tw (word_to n))
        else loop ()
      end
      else begin
        (* Tail lagging: help. The successor is safe to install because a
           node at or after the tail is never retired. *)
        ignore (Access.compare_and_set t.tail tw (word_to nt));
        loop ()
      end
    in
    loop ();
    R.end_op t.r ~tid

  let dequeue t ~tid =
    R.begin_op t.r ~tid;
    let rec loop () =
      let hw = R.protect_read t.r ~tid ~slot:slot_target t.head in
      let h = Packed.index hw in
      let tw = Access.get t.tail in
      let fw =
        R.protect_read t.r ~tid ~slot:slot_succ (next_word t h)
      in
      (* Re-validate that h is still the head: protects the first node
         (it cannot be retired before the head swings past it, and the
         head has provably not swung yet). *)
      if Access.get t.head <> hw then loop ()
      else begin
        let first = Packed.index fw in
        if first = 0 then None
        else if h = Packed.index tw then begin
          ignore (Access.compare_and_set t.tail tw (word_to first));
          loop ()
        end
        else begin
          let v = (Arena.get t.arena first).Node.key in
          if Access.compare_and_set t.head hw (word_to first) then begin
            R.retire t.r ~tid h;
            Some v
          end
          else loop ()
        end
      end
    in
    let res = loop () in
    R.end_op t.r ~tid;
    res

  let is_empty t ~tid =
    R.begin_op t.r ~tid;
    let hw = R.protect_read t.r ~tid ~slot:slot_target t.head in
    let res = Packed.index (Access.get (next_word t (Packed.index hw))) = 0 in
    R.end_op t.r ~tid;
    res

  (* Quiescent-only helpers. *)
  let to_list t =
    let h = Packed.index (Access.get t.head) in
    let rec go acc i =
      let nxt = Packed.index (Access.get (next_word t i)) in
      if nxt = 0 then List.rev acc
      else go ((Arena.get t.arena nxt).Node.key :: acc) nxt
    in
    go [] h
  [@@vbr.allow "guard-extent"]

  let length t = List.length (to_list t)
end
