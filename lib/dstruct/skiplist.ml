open Memsim

let max_level = 16

(* Protection slot layout per thread: 2 slots per level for the latched
   pred/succ, one scratch slot for stepping, one for the inserter's own
   node. *)
let slot_pred l = 2 * l
let slot_succ l = (2 * l) + 1
let slot_work = 2 * max_level
let slot_own = (2 * max_level) + 1

exception Restart

module Make (R : Reclaim.Smr_intf.S) = struct
  type t = {
    r : R.t;
    arena : Arena.t;
    head : int;
    rngs : int array;  (* per-thread xorshift state for tower heights *)
  }

  let name = "skiplist/" ^ R.name
  let hazard_slots = (2 * max_level) + 2

  let create r ~arena =
    let tail = R.alloc r ~tid:0 ~level:max_level ~key:Set_intf.max_key_bound in
    let head = R.alloc r ~tid:0 ~level:max_level ~key:Set_intf.min_key_bound in
    let hn = Arena.get arena head in
    Node.iter_words hn (fun w ->
        Access.set w (Packed.pack ~marked:false ~index:tail ~version:0));
    {
      r;
      arena;
      head;
      rngs = Array.init 1024 (fun i -> (i * 0x9E3779B9) lor 1);
    }

  (* Geometric tower height in [1, max_level], p = 1/2, per-thread
     deterministic xorshift. *)
  let random_level t ~tid =
    let x = t.rngs.(tid) in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = (x lxor (x lsl 17)) land max_int in
    t.rngs.(tid) <- x;
    let rec count lvl bits =
      if lvl >= max_level || bits land 1 = 0 then lvl
      else count (lvl + 1) (bits lsr 1)
    in
    count 1 x

  let node t i = Arena.get t.arena i
  let next t i l = Node.word (node t i) l
  let key_of t i = (node t i).Node.key
  let level_of t i = Node.level (node t i)
  (* Arena indices are in range by construction. *)
  let word_to i = Packed.pack_unchecked ~marked:false ~index:i ~version:0

  (* The Herlihy–Shavit find: latch pred/succ at every level, physically
     unlinking marked nodes on the way; any anomaly restarts the whole
     traversal. Marked nodes are snipped but never retired here — the
     bottom-level marker retires (Fraser amendment). On return, preds.(l)
     and succs.(l) are protected in their dedicated slots. *)
  let rec find t ~tid key preds succs =
    match find_attempt t ~tid key preds succs with
    | found -> found
    | exception Restart -> find t ~tid key preds succs

  and find_attempt t ~tid key preds succs =
    R.protect_own t.r ~tid ~slot:(slot_pred (max_level - 1)) t.head;
    let pred = ref t.head in
    let found = ref false in
    for l = max_level - 1 downto 0 do
      let curr_w =
        ref
          (R.protect_read t.r ~tid ~slot:(slot_succ l) (next t !pred l))
      in
      let at_level = ref true in
      while !at_level do
        let curr = Packed.index !curr_w in
        let cw =
          R.protect_read t.r ~tid ~slot:slot_work (next t curr l)
        in
        let pv = Access.get (next t !pred l) in
        if Packed.index pv <> curr || Packed.is_marked pv then raise Restart;
        if Packed.is_marked cw then begin
          (* curr is logically deleted at this level: unlink it. *)
          let succ = Packed.index cw in
          if Access.compare_and_set (next t !pred l) pv (word_to succ) then begin
            R.transfer t.r ~tid ~src:slot_work ~dst:(slot_succ l);
            curr_w := word_to succ
          end
          else raise Restart
        end
        else if key_of t curr < key then begin
          R.transfer t.r ~tid ~src:(slot_succ l) ~dst:(slot_pred l);
          pred := curr;
          R.transfer t.r ~tid ~src:slot_work ~dst:(slot_succ l);
          curr_w := cw
        end
        else begin
          preds.(l) <- !pred;
          succs.(l) <- curr;
          if l = 0 then found := key_of t curr = key;
          at_level := false;
          if l > 0 then
            R.transfer t.r ~tid ~src:(slot_pred l) ~dst:(slot_pred (l - 1))
        end
      done
    done;
    !found

  let insert t ~tid key =
    R.begin_op t.r ~tid;
    let preds = Array.make max_level 0 and succs = Array.make max_level 0 in
    let rec attempt () =
      if find t ~tid key preds succs then false
      else begin
        let lvl = random_level t ~tid in
        let n = R.alloc t.r ~tid ~level:lvl ~key in
        for l = 0 to lvl - 1 do
          Access.set (next t n l) (word_to succs.(l))
        done;
        (* Keep our node pinned: after the bottom link it is deletable by
           others while we still write its upper levels. *)
        R.protect_own t.r ~tid ~slot:slot_own n;
        if
          Access.compare_and_set
            (next t preds.(0) 0)
            (word_to succs.(0))
            (word_to n)
        then begin
          link_upper n lvl 1;
          true
        end
        else begin
          R.dealloc t.r ~tid n;
          attempt ()
        end
      end
    and link_upper n lvl l =
      if l >= lvl then begin
        (* Fraser amendment: if the node was marked while we were linking,
           make sure it gets fully unlinked before we return. *)
        if Packed.is_marked (Access.get (next t n 0)) then
          ignore (find t ~tid key preds succs)
      end
      else if succs.(l) = n then
        (* A refresh [find] already saw n linked at this level. *)
        link_upper n lvl (l + 1)
      else begin
        let nw = Access.get (next t n l) in
        if Packed.is_marked nw then
          (* Being removed: stop linking and help the unlink. *)
          ignore (find t ~tid key preds succs)
        else if Packed.index nw <> succs.(l) then begin
          (* Refresh our forward pointer towards the latest succ. *)
          if Access.compare_and_set (next t n l) nw (word_to succs.(l)) then
            link_upper n lvl l
          else link_upper n lvl l (* marked or raced; re-examine *)
        end
        else if
          Access.compare_and_set
            (next t preds.(l) l)
            (word_to succs.(l))
            (word_to n)
        then link_upper n lvl (l + 1)
        else begin
          (* preds/succs went stale at this level: recompute and retry.
             A re-find also bails us out if n got removed meanwhile. *)
          ignore (find t ~tid key preds succs);
          if Packed.is_marked (Access.get (next t n 0)) then ()
          else link_upper n lvl l
        end
      end
    in
    let res = attempt () in
    R.end_op t.r ~tid;
    res

  let delete t ~tid key =
    R.begin_op t.r ~tid;
    let preds = Array.make max_level 0 and succs = Array.make max_level 0 in
    let res =
      if not (find t ~tid key preds succs) then false
      else begin
        let victim = succs.(0) in
        let vlvl = level_of t victim in
        (* Mark upper levels top-down (idempotent between removers). *)
        for l = vlvl - 1 downto 1 do
          let rec mark_level () =
            let w = Access.get (next t victim l) in
            if not (Packed.is_marked w) then
              if
                not
                  (Access.compare_and_set (next t victim l) w
                     (Packed.set_mark w))
              then mark_level ()
          in
          mark_level ()
        done;
        (* Bottom-level mark: the winner is the logical remover. *)
        let rec mark_bottom () =
          let w = Access.get (next t victim 0) in
          if Packed.is_marked w then false
          else if
            Access.compare_and_set (next t victim 0) w (Packed.set_mark w)
          then begin
            (* Unlink from every level, then retire: Fraser amendment. *)
            ignore (find t ~tid key preds succs);
            R.retire t.r ~tid victim;
            true
          end
          else mark_bottom ()
        in
        mark_bottom ()
      end
    in
    R.end_op t.r ~tid;
    res

  let contains t ~tid key =
    R.begin_op t.r ~tid;
    let preds = Array.make max_level 0 and succs = Array.make max_level 0 in
    let res = find t ~tid key preds succs in
    R.end_op t.r ~tid;
    res

  (* Quiescent-only helpers: walk the bottom level. *)
  let to_list t =
    let rec go acc i =
      let w = Access.get (next t i 0) in
      let k = key_of t i in
      if k = Set_intf.max_key_bound then List.rev acc
      else begin
        let acc =
          if i <> t.head && not (Packed.is_marked w) then k :: acc else acc
        in
        go acc (Packed.index w)
      end
    in
    go [] t.head
  [@@vbr.allow "guarded-deref" "guard-extent"]

  let size t = List.length (to_list t)
end
