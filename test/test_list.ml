(* Sequential correctness of every linked-list variant (5 conservative
   schemes + VBR) against a reference Set model: directed unit cases plus
   a qcheck random-trace equivalence property. *)

module Iset = Set.Make (Int)

(* A uniform first-class handle over all list variants. *)
type handle = {
  hname : string;
  insert : int -> bool;
  delete : int -> bool;
  contains : int -> bool;
  to_list : unit -> int list;
}

let make_conservative (module R : Reclaim.Smr_intf.S) () =
  let arena = Memsim.Arena.create ~capacity:100_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let r =
    R.create ~arena ~global ~n_threads:2 ~hazards:3 ~retire_threshold:8
      ~epoch_freq:4
  in
  let module L = Dstruct.Linked_list.Make (R) in
  let l = L.create r ~arena in
  {
    hname = L.name;
    insert = (fun k -> L.insert l ~tid:0 k);
    delete = (fun k -> L.delete l ~tid:0 k);
    contains = (fun k -> L.contains l ~tid:0 k);
    to_list = (fun () -> L.to_list l);
  }

let make_vbr () =
  let arena = Memsim.Arena.create ~capacity:100_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:4 ~arena ~global ~n_threads:2 ()
  in
  let l = Dstruct.Vbr_list.create vbr in
  {
    hname = Dstruct.Vbr_list.name;
    insert = (fun k -> Dstruct.Vbr_list.insert l ~tid:0 k);
    delete = (fun k -> Dstruct.Vbr_list.delete l ~tid:0 k);
    contains = (fun k -> Dstruct.Vbr_list.contains l ~tid:0 k);
    to_list = (fun () -> Dstruct.Vbr_list.to_list l);
  }

let variants : (string * (unit -> handle)) list =
  [
    ("NoRecl", make_conservative (module Reclaim.No_recl));
    ("EBR", make_conservative (module Reclaim.Ebr));
    ("HP", make_conservative (module Reclaim.Hp));
    ("HE", make_conservative (module Reclaim.He));
    ("IBR", make_conservative (module Reclaim.Ibr));
    ("VBR", make_vbr);
  ]

(* Directed cases. *)

let test_empty mk () =
  let h = mk () in
  Alcotest.(check bool) "contains on empty" false (h.contains 5);
  Alcotest.(check bool) "delete on empty" false (h.delete 5);
  Alcotest.(check (list int)) "to_list empty" [] (h.to_list ())

let test_insert_contains mk () =
  let h = mk () in
  Alcotest.(check bool) "insert 3" true (h.insert 3);
  Alcotest.(check bool) "insert 1" true (h.insert 1);
  Alcotest.(check bool) "insert 2" true (h.insert 2);
  Alcotest.(check bool) "dup insert" false (h.insert 2);
  Alcotest.(check bool) "contains 1" true (h.contains 1);
  Alcotest.(check bool) "contains 2" true (h.contains 2);
  Alcotest.(check bool) "contains 3" true (h.contains 3);
  Alcotest.(check bool) "contains 4" false (h.contains 4);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (h.to_list ())

let test_delete mk () =
  let h = mk () in
  List.iter (fun k -> ignore (h.insert k)) [ 10; 20; 30; 40 ];
  Alcotest.(check bool) "delete middle" true (h.delete 20);
  Alcotest.(check bool) "gone" false (h.contains 20);
  Alcotest.(check bool) "delete again" false (h.delete 20);
  Alcotest.(check bool) "delete head" true (h.delete 10);
  Alcotest.(check bool) "delete tail" true (h.delete 40);
  Alcotest.(check (list int)) "one left" [ 30 ] (h.to_list ());
  Alcotest.(check bool) "delete last" true (h.delete 30);
  Alcotest.(check (list int)) "empty again" [] (h.to_list ())

let test_reinsert_cycles mk () =
  (* Exercises recycling: the same keys inserted and deleted repeatedly
     force slots through many lifecycles. *)
  let h = mk () in
  for round = 1 to 50 do
    for k = 0 to 19 do
      Alcotest.(check bool)
        (Printf.sprintf "round %d insert %d" round k)
        true (h.insert k)
    done;
    for k = 0 to 19 do
      Alcotest.(check bool)
        (Printf.sprintf "round %d delete %d" round k)
        true (h.delete k)
    done
  done;
  Alcotest.(check (list int)) "empty at end" [] (h.to_list ())

let test_negative_and_extreme_keys mk () =
  let h = mk () in
  let keys = [ -1000; -1; 0; 1; 1000; max_int - 1; min_int + 1 ] in
  List.iter (fun k -> Alcotest.(check bool) "ins" true (h.insert k)) keys;
  List.iter (fun k -> Alcotest.(check bool) "mem" true (h.contains k)) keys;
  Alcotest.(check (list int))
    "sorted extremes" (List.sort compare keys) (h.to_list ())

let test_interleaved_ops mk () =
  let h = mk () in
  ignore (h.insert 5);
  ignore (h.insert 7);
  Alcotest.(check bool) "del 5" true (h.delete 5);
  Alcotest.(check bool) "ins 5 again" true (h.insert 5);
  Alcotest.(check bool) "del 7" true (h.delete 7);
  Alcotest.(check bool) "ins 6" true (h.insert 6);
  Alcotest.(check (list int)) "state" [ 5; 6 ] (h.to_list ())

(* Random-trace equivalence with a Set model. *)

type op = Ins of int | Del of int | Mem of int

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 50 400)
      (let* k = int_range 0 30 in
       let* c = int_range 0 2 in
       return (match c with 0 -> Ins k | 1 -> Del k | _ -> Mem k)))

let apply_model m = function
  | Ins k -> (Iset.add k m, not (Iset.mem k m))
  | Del k -> (Iset.remove k m, Iset.mem k m)
  | Mem k -> (m, Iset.mem k m)

let prop_model mk =
  QCheck2.Test.make ~name:"random trace matches Set model" ~count:60 gen_ops
    (fun ops ->
      let h = mk () in
      let m = ref Iset.empty in
      List.for_all
        (fun op ->
          let m', expected = apply_model !m op in
          m := m';
          let got =
            match op with
            | Ins k -> h.insert k
            | Del k -> h.delete k
            | Mem k -> h.contains k
          in
          got = expected)
        ops
      && h.to_list () = Iset.elements !m)

(* Failure injection: a hostile domain advances the global epoch as fast
   as it can, so nearly every VBR read is forced through the rollback
   path; the results must still match the model exactly. *)
let test_adversarial_epoch () =
  let arena = Memsim.Arena.create ~capacity:100_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:2 ~arena ~global ~n_threads:2 ()
  in
  let l = Dstruct.Vbr_list.create vbr in
  let stop = Atomic.make false in
  let bumper =
    Domain.spawn (fun () ->
        let e = Vbr_core.Vbr.epoch vbr in
        while not (Atomic.get stop) do
          ignore
            (Vbr_core.Epoch.try_advance e ~expected:(Vbr_core.Epoch.get e))
        done)
  in
  let m = ref Iset.empty in
  let rng = Random.State.make [| 2026 |] in
  for _ = 1 to 3_000 do
    let k = Random.State.int rng 40 in
    match Random.State.int rng 3 with
    | 0 ->
        let expected = not (Iset.mem k !m) in
        m := Iset.add k !m;
        Alcotest.(check bool) "insert under epoch storm" expected
          (Dstruct.Vbr_list.insert l ~tid:0 k)
    | 1 ->
        let expected = Iset.mem k !m in
        m := Iset.remove k !m;
        Alcotest.(check bool) "delete under epoch storm" expected
          (Dstruct.Vbr_list.delete l ~tid:0 k)
    | _ ->
        Alcotest.(check bool) "contains under epoch storm" (Iset.mem k !m)
          (Dstruct.Vbr_list.contains l ~tid:0 k)
  done;
  Atomic.set stop true;
  Domain.join bumper;
  Alcotest.(check (list int)) "final state" (Iset.elements !m)
    (Dstruct.Vbr_list.to_list l);
  (* The storm must actually have exercised rollbacks. *)
  let stats = Vbr_core.Vbr.total_stats vbr in
  Alcotest.(check bool) "rollbacks occurred" true
    (stats.Vbr_core.Vbr.rollbacks > 100)

(* Deterministic preemption of a VBR delete, on one domain. Thread 0
   deletes key 1 from head -> 1 -> 17 -> 33, driving the list through
   its packed head handle (sentinel slot, birth). An Access hook stops it
   just before its n-th access to node 1's next word and runs one whole
   operation of thread 1 there: the delete of 17 (node 1's successor) or
   the insert of 9 (a new successor of node 1). For every n, both
   operations must succeed, the list must match the model, and every
   node reachable from the head must be unretired. A delete that unlinks
   node 1 towards a successor read before its mark fails this: it
   re-links the retired 17, or drops the inserted 9. *)
let test_preempted_delete () =
  let module L = Dstruct.Vbr_list in
  let scenarios =
    [
      ( "delete 17",
        (fun vbr ~head -> L.delete_at vbr ~head ~tid:1 17),
        [ 33 ] );
      ( "insert 9",
        (fun vbr ~head -> L.insert_at vbr ~head ~tid:1 9),
        [ 9; 17; 33 ] );
    ]
  in
  List.iter
    (fun (what, interloper, expected) ->
      for n = 1 to 6 do
        let arena = Memsim.Arena.create ~capacity:1_000 in
        let global = Memsim.Global_pool.create ~max_level:1 in
        let vbr =
          Vbr_core.Vbr.create_tuned ~retire_threshold:0 ~arena ~global
            ~n_threads:2 ()
        in
        let tail, tail_birth = L.make_tail vbr in
        let h, h_birth =
          Vbr_core.Vbr.alloc_sentinels vbr ~n:1
            ~key:Dstruct.Set_intf.min_key_bound ~next:tail
            ~next_birth:tail_birth
        in
        let head = Memsim.Packed.pack ~marked:false ~index:h ~version:h_birth in
        List.iter
          (fun k -> assert (L.insert_at vbr ~head ~tid:0 k))
          [ 1; 17; 33 ];
        let next i =
          Memsim.Packed.index
            (Atomic.get (Memsim.Node.next0 (Memsim.Arena.get arena i)))
        in
        let one = Memsim.Arena.get arena (next h) in
        let word = Obj.repr (Memsim.Node.next0 one) in
        let seen = ref 0 and result = ref None in
        Memsim.Access.install (fun o ->
            if !result = None && o.word == word then begin
              incr seen;
              if !seen = n then begin
                (* Set first: the interloper's own accesses re-enter
                   this hook and must pass through. *)
                result := Some false;
                result := Some (interloper vbr ~head)
              end
            end);
        let deleted =
          Fun.protect ~finally:Memsim.Access.uninstall (fun () ->
              L.delete_at vbr ~head ~tid:0 1)
        in
        let ctx = Printf.sprintf "%s before access %d" what n in
        Alcotest.(check bool) (ctx ^ ": delete 1") true deleted;
        (match !result with
        | None -> ()
        | Some ok ->
            Alcotest.(check bool) (ctx ^ ": interloper") true ok;
            Alcotest.(check (list int)) (ctx ^ ": contents") expected
              (L.to_list_at vbr ~head);
            let rec reachable i =
              if i <> tail then begin
                Alcotest.(check int)
                  (Printf.sprintf "%s: reachable slot %d unretired" ctx i)
                  Memsim.Node.no_epoch
                  (Vbr_core.Vbr.read_retire vbr i);
                reachable (next i)
              end
            in
            reachable (next h))
      done)
    scenarios

let () =
  let suites =
    List.map
      (fun (sname, mk) ->
        ( sname,
          [
            Alcotest.test_case "empty" `Quick (test_empty mk);
            Alcotest.test_case "insert/contains" `Quick
              (test_insert_contains mk);
            Alcotest.test_case "delete" `Quick (test_delete mk);
            Alcotest.test_case "reinsert cycles" `Quick
              (test_reinsert_cycles mk);
            Alcotest.test_case "extreme keys" `Quick
              (test_negative_and_extreme_keys mk);
            Alcotest.test_case "interleaved" `Quick (test_interleaved_ops mk);
            QCheck_alcotest.to_alcotest (prop_model mk);
          ] ))
      variants
  in
  let suites =
    suites
    @ [
        ( "VBR-adversarial",
          [
            Alcotest.test_case "epoch storm vs model" `Slow
              test_adversarial_epoch;
            Alcotest.test_case "preempted delete" `Quick test_preempted_delete;
          ] );
      ]
  in
  Alcotest.run "list" suites
