open Memsim

module Make (R : Reclaim.Smr_intf.S) = struct
  type t = { r : R.t; arena : Arena.t; top : int Atomic.t }

  let name = "stack/" ^ R.name
  let hazard_slots = 1
  (* Arena indices are in range by construction. *)
  let word_to i = Packed.pack_unchecked ~marked:false ~index:i ~version:0

  let create r ~arena = { r; arena; top = Atomic.make Packed.null }

  let next_word t i = Node.next0 (Arena.get t.arena i)

  let push t ~tid v =
    R.begin_op t.r ~tid;
    let n = R.alloc t.r ~tid ~level:1 ~key:v in
    let rec loop () =
      let tw = Access.get t.top in
      Access.set (next_word t n) (word_to (Packed.index tw));
      if not (Access.compare_and_set t.top tw (word_to n)) then loop ()
    in
    loop ();
    R.end_op t.r ~tid

  let pop t ~tid =
    R.begin_op t.r ~tid;
    let rec loop () =
      let tw = R.protect_read t.r ~tid ~slot:0 t.top in
      let top = Packed.index tw in
      if top = 0 then None
      else begin
        (* top is protected: its next is stable and it cannot be recycled
           before our swing, so the CAS is ABA-free. *)
        let nxt = Packed.index (Access.get (next_word t top)) in
        let v = (Arena.get t.arena top).Node.key in
        if Access.compare_and_set t.top tw (word_to nxt) then begin
          R.retire t.r ~tid top;
          Some v
        end
        else loop ()
      end
    in
    let res = loop () in
    R.end_op t.r ~tid;
    res

  let is_empty t ~tid:_ = Packed.is_null (Access.get t.top)

  (* Quiescent-only helpers. *)
  let to_list t =
    let rec go acc i =
      if i = 0 then List.rev acc
      else
        go
          ((Arena.get t.arena i).Node.key :: acc)
          (Packed.index (Access.get (next_word t i)))
    in
    go [] (Packed.index (Access.get t.top))
  [@@vbr.allow "guard-extent"]

  let length t = List.length (to_list t)
end
