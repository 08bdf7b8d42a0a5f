(* Sequential correctness of the hash-table variants: bucket routing,
   cross-bucket behaviour, shared-tail safety, and Set-model equivalence. *)

module Iset = Set.Make (Int)

type handle = {
  hname : string;
  insert : int -> bool;
  delete : int -> bool;
  contains : int -> bool;
  to_list : unit -> int list;
}

let buckets = 8

let make_conservative (module R : Reclaim.Smr_intf.S) () =
  let arena = Memsim.Arena.create ~capacity:100_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let r =
    R.create ~arena ~global ~n_threads:2 ~hazards:3 ~retire_threshold:8
      ~epoch_freq:4
  in
  let module H = Dstruct.Hash_table.Make (R) in
  let h = H.create r ~arena ~buckets in
  {
    hname = H.name;
    insert = (fun k -> H.insert h ~tid:0 k);
    delete = (fun k -> H.delete h ~tid:0 k);
    contains = (fun k -> H.contains h ~tid:0 k);
    to_list = (fun () -> H.to_list h);
  }

let make_vbr () =
  let arena = Memsim.Arena.create ~capacity:100_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:4 ~arena ~global ~n_threads:2 ()
  in
  let h = Dstruct.Vbr_hash.create vbr ~buckets in
  {
    hname = Dstruct.Vbr_hash.name;
    insert = (fun k -> Dstruct.Vbr_hash.insert h ~tid:0 k);
    delete = (fun k -> Dstruct.Vbr_hash.delete h ~tid:0 k);
    contains = (fun k -> Dstruct.Vbr_hash.contains h ~tid:0 k);
    to_list = (fun () -> Dstruct.Vbr_hash.to_list h);
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

let test_bucket_collisions mk () =
  (* Keys congruent mod buckets land in one bucket list and must coexist. *)
  let h = mk () in
  let keys = List.init 10 (fun i -> i * buckets) in
  List.iter (fun k -> Alcotest.(check bool) "ins" true (h.insert k)) keys;
  Alcotest.(check bool) "dup" false (h.insert (3 * buckets));
  List.iter (fun k -> Alcotest.(check bool) "mem" true (h.contains k)) keys;
  Alcotest.(check bool) "other residue absent" false (h.contains 1);
  Alcotest.(check bool) "delete middle" true (h.delete (5 * buckets));
  Alcotest.(check bool) "gone" false (h.contains (5 * buckets));
  Alcotest.(check int) "count" 9 (List.length (h.to_list ()))

let test_all_buckets mk () =
  let h = mk () in
  for k = 0 to 63 do
    Alcotest.(check bool) "ins" true (h.insert k)
  done;
  Alcotest.(check (list int)) "all present" (List.init 64 Fun.id)
    (h.to_list ());
  for k = 0 to 63 do
    Alcotest.(check bool) "del" true (h.delete k)
  done;
  Alcotest.(check (list int)) "empty" [] (h.to_list ())

let test_churn mk () =
  let h = mk () in
  for _round = 1 to 40 do
    for k = 0 to 31 do
      ignore (h.insert k)
    done;
    for k = 0 to 31 do
      ignore (h.delete k)
    done
  done;
  Alcotest.(check (list int)) "empty after churn" [] (h.to_list ())

type op = Ins of int | Del of int | Mem of int

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 50 300)
      (let* k = int_range 0 60 in
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
          (match op with
          | Ins k -> h.insert k
          | Del k -> h.delete k
          | Mem k -> h.contains k)
          = expected)
        ops
      && h.to_list () = Iset.elements !m)

(* hash/VBR against a sequential Set model, one domain, for a single
   bucket (one long chain), a bucket count coprime to the key stride, and
   one bucket per key. Keys straddle zero so negative keys exercise the
   bucket routing too. After the whole trace, every key's [contains],
   [size] and [to_list] must agree with the model. *)
let key_lo = -10
let key_hi = 60

let gen_wide_ops =
  QCheck2.Gen.(
    list_size (int_range 50 400)
      (let* k = int_range key_lo key_hi in
       let* c = int_range 0 2 in
       return (match c with 0 -> Ins k | 1 -> Del k | _ -> Mem k)))

let prop_vbr_buckets buckets =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "VBR, %d buckets: final state matches Set model"
         buckets)
    ~count:30 gen_wide_ops
    (fun ops ->
      let arena = Memsim.Arena.create ~capacity:10_000 in
      let global = Memsim.Global_pool.create ~max_level:1 in
      let vbr =
        Vbr_core.Vbr.create_tuned ~retire_threshold:4 ~arena ~global
          ~n_threads:1 ()
      in
      let h = Dstruct.Vbr_hash.create vbr ~buckets in
      let m =
        List.fold_left
          (fun m op ->
            match op with
            | Ins k ->
                if Dstruct.Vbr_hash.insert h ~tid:0 k <> not (Iset.mem k m)
                then Alcotest.failf "insert %d disagrees with the model" k;
                Iset.add k m
            | Del k ->
                if Dstruct.Vbr_hash.delete h ~tid:0 k <> Iset.mem k m then
                  Alcotest.failf "delete %d disagrees with the model" k;
                Iset.remove k m
            | Mem k ->
                if Dstruct.Vbr_hash.contains h ~tid:0 k <> Iset.mem k m then
                  Alcotest.failf "contains %d disagrees with the model" k;
                m)
          Iset.empty ops
      in
      for k = key_lo to key_hi do
        if Dstruct.Vbr_hash.contains h ~tid:0 k <> Iset.mem k m then
          Alcotest.failf "final contains %d disagrees with the model" k
      done;
      Dstruct.Vbr_hash.size h = Iset.cardinal m
      && Dstruct.Vbr_hash.to_list h = Iset.elements m)

(* hash/VBR carves its bucket head sentinels as one slot range: bucket
   [b]'s head handle is slot [base + b] with the sentinels' common birth,
   and every chain starts at its own head. The heads stay arena nodes
   keyed [min_key_bound]: that is how perfbench's ladder finds chains. *)
let vbr_hash ~buckets =
  let arena = Memsim.Arena.create ~capacity:1_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let vbr =
    Vbr_core.Vbr.create_tuned ~retire_threshold:4 ~arena ~global ~n_threads:1 ()
  in
  (arena, vbr, Dstruct.Vbr_hash.create vbr ~buckets)

let test_vbr_head_range () =
  let module P = Memsim.Packed in
  let arena, vbr, h = vbr_hash ~buckets in
  let head = Dstruct.Vbr_hash.head h in
  let base = P.index (head 0) in
  let min_key_nodes =
    List.filter
      (fun i ->
        (Memsim.Arena.get arena i).Memsim.Node.key
        = Dstruct.Set_intf.min_key_bound)
      (List.init (Memsim.Arena.allocated arena) (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "the min-key nodes are the range base + b"
    (List.init buckets (fun b -> base + b))
    min_key_nodes;
  for b = 0 to buckets - 1 do
    let slot = base + b in
    Alcotest.(check int) "bucket b's head is base + b" slot (P.index (head b));
    Alcotest.(check int) "key routing wraps" slot (P.index (head (b + buckets)));
    (* [buckets] is a power of two, so a negative key's non-negative
       residue is its low bits. *)
    Alcotest.(check int) "negative keys route by residue" slot
      (P.index (head (b - (4 * buckets))));
    Alcotest.(check int) "handle carries the sentinel's birth"
      (Vbr_core.Vbr.read_birth vbr slot) (P.version (head b));
    Alcotest.(check bool) "insert" true (Dstruct.Vbr_hash.insert h ~tid:0 b)
  done;
  for b = 0 to buckets - 1 do
    Alcotest.(check (list int)) "chain from base + b holds b" [ b ]
      (Dstruct.Vbr_list.to_list_at vbr ~head:(head b))
  done

(* An insert into an empty bucket never reads the head sentinel's birth
   word: the head handle carries it. The same run must read the tail's
   birth (the CAS needs it), so the hook does see birth-word reads. *)
let test_vbr_insert_skips_head_birth () =
  let arena, _, h = vbr_hash ~buckets:4 in
  let key = 5 in
  let node i = Memsim.Arena.get arena i in
  let hd = Memsim.Packed.index (Dstruct.Vbr_hash.head h key) in
  let tail =
    Memsim.Packed.index (Atomic.get (Memsim.Node.next0 (node hd)))
  in
  let birth_word i = Obj.repr (node i).Memsim.Node.birth in
  let reads = ref [] in
  Memsim.Access.install (fun o ->
      if o.Memsim.Access.kind = Memsim.Access.Read then
        reads := o.Memsim.Access.word :: !reads);
  let ok =
    Fun.protect ~finally:Memsim.Access.uninstall (fun () ->
        Dstruct.Vbr_hash.insert h ~tid:0 key)
  in
  Alcotest.(check bool) "inserted" true ok;
  Alcotest.(check bool) "no read of the head sentinel's birth" false
    (List.memq (birth_word hd) !reads);
  Alcotest.(check bool) "the tail's birth is read" true
    (List.memq (birth_word tail) !reads)

let () =
  let suites =
    List.map
      (fun (sname, mk) ->
        ( sname,
          [
            Alcotest.test_case "bucket collisions" `Quick
              (test_bucket_collisions mk);
            Alcotest.test_case "all buckets" `Quick (test_all_buckets mk);
            Alcotest.test_case "churn" `Quick (test_churn mk);
            QCheck_alcotest.to_alcotest (prop_model mk);
          ] ))
      variants
  in
  let model =
    ( "VBR bucket model",
      List.map
        (fun b -> QCheck_alcotest.to_alcotest (prop_vbr_buckets b))
        [ 1; 7; key_hi - key_lo + 1 ] )
  in
  let layout =
    ( "VBR bucket sentinels",
      [
        Alcotest.test_case "head range" `Quick test_vbr_head_range;
        Alcotest.test_case "insert skips head birth" `Quick
          test_vbr_insert_skips_head_birth;
      ] )
  in
  Alcotest.run "hash" (suites @ [ model; layout ])
