(* Sequential correctness of every skiplist variant against a Set model,
   plus skiplist-specific structural checks (tower ordering at every
   level, level histogram sanity). *)

module Iset = Set.Make (Int)

type handle = {
  hname : string;
  insert : int -> bool;
  delete : int -> bool;
  contains : int -> bool;
  to_list : unit -> int list;
  check_levels : unit -> unit;  (* every level sorted and a sublist of bottom *)
}

let max_level = Dstruct.Skiplist.max_level

(* Walk level [l] and return its keys (unmarked nodes only). *)
let level_keys arena head l =
  let open Memsim in
  let rec go acc i =
    let n = Arena.get arena i in
    if n.Node.key = Dstruct.Set_intf.max_key_bound then List.rev acc
    else begin
      let w = Atomic.get (Node.word n (min l (Node.level n - 1))) in
      let w0 = Atomic.get (Node.next0 n) in
      let acc =
        if i <> head && not (Packed.is_marked w0) then n.Node.key :: acc
        else acc
      in
      go acc (Packed.index w)
    end
  in
  (* At level l only nodes with level > l are linked; walk from head's
     level-l pointer. *)
  let rec walk acc i =
    let n = Arena.get arena i in
    if n.Node.key = Dstruct.Set_intf.max_key_bound then List.rev acc
    else begin
      let acc = if i <> head then n.Node.key :: acc else acc in
      walk acc (Packed.index (Atomic.get (Node.word n l)))
    end
  in
  ignore go;
  walk [] head

let check_levels_generic arena head () =
  let bottom = level_keys arena head 0 in
  let bottom_set = Iset.of_list bottom in
  for l = 1 to max_level - 1 do
    let keys = level_keys arena head l in
    let sorted = List.sort compare keys in
    if keys <> sorted then
      Alcotest.failf "level %d not sorted: %s" l
        (String.concat "," (List.map string_of_int keys));
    List.iter
      (fun k ->
        if not (Iset.mem k bottom_set) then
          Alcotest.failf "level %d key %d missing from bottom level" l k)
      keys
  done

let make_conservative (module R : Reclaim.Smr_intf.S) () =
  let arena = Memsim.Arena.create ~capacity:200_000 in
  let global = Memsim.Global_pool.create ~max_level in
  let r =
    R.create ~arena ~global ~n_threads:2
      ~hazards:((2 * max_level) + 2)
      ~retire_threshold:8 ~epoch_freq:4
  in
  let module S = Dstruct.Skiplist.Make (R) in
  let s = S.create r ~arena in
  let head =
    (* reach in via to_list is enough for keys; for structure checks we
       need the head index, which create put at slot 2 (tail is 1). *)
    2
  in
  {
    hname = S.name;
    insert = (fun k -> S.insert s ~tid:0 k);
    delete = (fun k -> S.delete s ~tid:0 k);
    contains = (fun k -> S.contains s ~tid:0 k);
    to_list = (fun () -> S.to_list s);
    check_levels = check_levels_generic arena head;
  }

let make_vbr () =
  let arena = Memsim.Arena.create ~capacity:200_000 in
  let global = Memsim.Global_pool.create ~max_level in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:4 ~arena ~global ~n_threads:2 ()
  in
  let s = Dstruct.Vbr_skiplist.create vbr in
  let head = 2 in
  {
    hname = Dstruct.Vbr_skiplist.name;
    insert = (fun k -> Dstruct.Vbr_skiplist.insert s ~tid:0 k);
    delete = (fun k -> Dstruct.Vbr_skiplist.delete s ~tid:0 k);
    contains = (fun k -> Dstruct.Vbr_skiplist.contains s ~tid:0 k);
    to_list = (fun () -> Dstruct.Vbr_skiplist.to_list s);
    check_levels = check_levels_generic arena head;
  }

let variants =
  [
    ("NoRecl", make_conservative (module Reclaim.No_recl));
    ("EBR", make_conservative (module Reclaim.Ebr));
    ("HP", make_conservative (module Reclaim.Hp));
    ("HE", make_conservative (module Reclaim.He));
    ("IBR", make_conservative (module Reclaim.Ibr));
    ("VBR", make_vbr);
  ]

let test_basic mk () =
  let h = mk () in
  Alcotest.(check bool) "empty contains" false (h.contains 7);
  Alcotest.(check bool) "insert 7" true (h.insert 7);
  Alcotest.(check bool) "insert 3" true (h.insert 3);
  Alcotest.(check bool) "insert 11" true (h.insert 11);
  Alcotest.(check bool) "dup" false (h.insert 7);
  Alcotest.(check bool) "contains 3" true (h.contains 3);
  Alcotest.(check bool) "contains 11" true (h.contains 11);
  Alcotest.(check bool) "not contains 5" false (h.contains 5);
  Alcotest.(check (list int)) "sorted" [ 3; 7; 11 ] (h.to_list ());
  Alcotest.(check bool) "delete 7" true (h.delete 7);
  Alcotest.(check bool) "delete 7 again" false (h.delete 7);
  Alcotest.(check (list int)) "after delete" [ 3; 11 ] (h.to_list ());
  h.check_levels ()

let test_bulk mk () =
  let h = mk () in
  let keys = List.init 200 (fun i -> (i * 37) mod 1009) |> List.sort_uniq compare in
  List.iter (fun k -> Alcotest.(check bool) "ins" true (h.insert k)) keys;
  h.check_levels ();
  List.iter (fun k -> Alcotest.(check bool) "mem" true (h.contains k)) keys;
  Alcotest.(check (list int)) "all present" keys (h.to_list ());
  let half = List.filteri (fun i _ -> i mod 2 = 0) keys in
  List.iter (fun k -> Alcotest.(check bool) "del" true (h.delete k)) half;
  h.check_levels ();
  let rest = List.filter (fun k -> not (List.mem k half)) keys in
  Alcotest.(check (list int)) "half left" rest (h.to_list ())

let test_churn mk () =
  let h = mk () in
  for _round = 1 to 30 do
    for k = 0 to 49 do
      ignore (h.insert k)
    done;
    for k = 0 to 49 do
      ignore (h.delete k)
    done
  done;
  Alcotest.(check (list int)) "empty" [] (h.to_list ());
  h.check_levels ()

type op = Ins of int | Del of int | Mem of int

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 50 300)
      (let* k = int_range 0 40 in
       let* c = int_range 0 2 in
       return (match c with 0 -> Ins k | 1 -> Del k | _ -> Mem k)))

let prop_model mk =
  QCheck2.Test.make ~name:"random trace matches Set model" ~count:40 gen_ops
    (fun ops ->
      let h = mk () in
      let m = ref Iset.empty in
      List.for_all
        (fun op ->
          let expected, m' =
            match op with
            | Ins k -> (not (Iset.mem k !m), Iset.add k !m)
            | Del k -> (Iset.mem k !m, Iset.remove k !m)
            | Mem k -> (Iset.mem k !m, !m)
          in
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

let () =
  let suites =
    List.map
      (fun (sname, mk) ->
        ( sname,
          [
            Alcotest.test_case "basic" `Quick (test_basic mk);
            Alcotest.test_case "bulk" `Quick (test_bulk mk);
            Alcotest.test_case "churn" `Quick (test_churn mk);
            QCheck_alcotest.to_alcotest (prop_model mk);
          ] ))
      variants
  in
  Alcotest.run "skiplist" suites
