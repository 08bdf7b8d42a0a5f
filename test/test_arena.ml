(* Unit tests for the simulated heap: slot allocation, node shapes, bounds
   checking, and multi-domain fresh-slot races. *)

open Memsim

let test_fresh_sequence () =
  let a = Arena.create ~capacity:100 in
  Alcotest.(check int) "capacity" 100 (Arena.capacity a);
  Alcotest.(check int) "no allocations yet" 0 (Arena.allocated a);
  let i1 = Arena.fresh a ~level:1 in
  let i2 = Arena.fresh a ~level:3 in
  Alcotest.(check int) "first slot is 1 (0 is NULL)" 1 i1;
  Alcotest.(check int) "second slot is 2" 2 i2;
  Alcotest.(check int) "allocated count" 2 (Arena.allocated a);
  let n1 = Arena.get a i1 and n2 = Arena.get a i2 in
  Alcotest.(check int) "level 1 tower" 1 (Node.level n1);
  Alcotest.(check int) "level 3 tower" 3 (Node.level n2);
  Alcotest.(check int) "3 next words" 3 (1 + Array.length n2.Node.upper);
  Alcotest.(check int) "fresh birth" 0 (Atomic.get n1.Node.birth);
  Alcotest.(check int) "fresh retire is bottom" Node.no_epoch
    (Atomic.get n1.Node.retire);
  Node.iter_words n2 (fun w ->
      Alcotest.(check int) "next starts NULL" Packed.null (Atomic.get w))

let test_exhaustion () =
  let a = Arena.create ~capacity:3 in
  ignore (Arena.fresh a ~level:1);
  ignore (Arena.fresh a ~level:1);
  ignore (Arena.fresh a ~level:1);
  Alcotest.check_raises "exhausted" Arena.Exhausted (fun () ->
      ignore (Arena.fresh a ~level:1))

let test_fresh_range () =
  (* One bump per range: contiguous slots, each a fresh node of the
     requested height, also when the range straddles a 16K-slot chunk
     edge; a range past the capacity raises [Exhausted]. *)
  let chunk = 1 lsl 14 in
  let a = Arena.create ~capacity:(chunk + 100) in
  let i0 = Arena.fresh a ~level:1 in
  let base = Arena.fresh_range a ~n:10 ~level:2 in
  Alcotest.(check int) "range starts after the fresh slot" (i0 + 1) base;
  for i = base to base + 9 do
    Alcotest.(check int) "range node shape" 2 (Node.level (Arena.get a i))
  done;
  let filler = Arena.fresh_range a ~n:(chunk - 20) ~level:1 in
  Alcotest.(check int) "filler is contiguous" (base + 10) filler;
  let edge = Arena.fresh_range a ~n:50 ~level:1 in
  Alcotest.(check bool) "range straddles the chunk edge" true
    (edge < chunk && edge + 49 >= chunk);
  for i = edge to edge + 49 do
    let n = Arena.get a i in
    Alcotest.(check int) "edge node shape" 1 (Node.level n);
    Alcotest.(check bool) "own node record" false (n == Arena.get a (i - 1))
  done;
  Alcotest.(check int) "slots claimed" (edge + 49) (Arena.allocated a);
  let left = Arena.capacity a - Arena.allocated a in
  Alcotest.check_raises "past capacity" Arena.Exhausted (fun () ->
      ignore (Arena.fresh_range a ~n:(left + 1) ~level:1));
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Arena.fresh_range: n must be >= 1") (fun () ->
      ignore (Arena.fresh_range a ~n:0 ~level:1))

let test_bounds () =
  let a = Arena.create ~capacity:10 in
  ignore (Arena.fresh a ~level:1);
  Alcotest.check_raises "slot 0 rejected"
    (Invalid_argument "Arena.get: slot 0 out of range") (fun () ->
      ignore (Arena.get a 0));
  Alcotest.check_raises "beyond capacity"
    (Invalid_argument "Arena.get: slot 11 out of range") (fun () ->
      ignore (Arena.get a 11));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Arena.create: capacity 0 out of range") (fun () ->
      ignore (Arena.create ~capacity:0));
  Alcotest.check_raises "bad level" (Invalid_argument "Node.make: level must be >= 1")
    (fun () -> ignore (Arena.fresh a ~level:0))

let test_chunk_boundaries () =
  (* Slots spanning multiple 16K chunks stay addressable and distinct. *)
  let cap = 40_000 in
  let a = Arena.create ~capacity:cap in
  for i = 1 to cap do
    let j = Arena.fresh a ~level:1 in
    Alcotest.(check int) "sequential slots" i j;
    (Arena.get a j).Node.key <- j * 7
  done;
  for i = 1 to cap do
    Alcotest.(check int) "keys survive" (i * 7) (Arena.get a i).Node.key
  done;
  Alcotest.check_raises "exhausted at capacity" Arena.Exhausted (fun () ->
      ignore (Arena.fresh a ~level:1))

let test_parallel_fresh () =
  (* Concurrent fresh claims never hand out the same slot twice. *)
  let a = Arena.create ~capacity:40_000 in
  let per_domain = 8_000 in
  let claim () = Array.init per_domain (fun _ -> Arena.fresh a ~level:1) in
  let domains = List.init 4 (fun _ -> Domain.spawn claim) in
  let all = List.concat_map (fun d -> Array.to_list (Domain.join d)) domains in
  let unique = List.sort_uniq compare all in
  Alcotest.(check int) "no duplicate slot" (List.length all)
    (List.length unique);
  Alcotest.(check int) "allocated total" (4 * per_domain) (Arena.allocated a)

(* Sanitizer: the opt-in debug layer over arena + pool. *)

let sanitized mode =
  let arena = Arena.create ~capacity:16 in
  let san = Arena.attach_sanitizer arena mode in
  let global = Global_pool.create ~max_level:1 in
  let pool = Pool.create arena global ~spill:8 in
  (arena, san, pool)

let test_sanitizer_double_retire () =
  let arena, san, pool = sanitized Sanitizer.Track in
  let i = Arena.fresh arena ~level:1 in
  Pool.put pool i;
  Alcotest.(check bool) "slot marked free" true (Sanitizer.freed san i);
  Alcotest.check_raises "second put raises"
    (Sanitizer.Violation
       (Printf.sprintf
          "double retire: slot %d (key 0) is already on a free list" i))
    (fun () -> Pool.put pool i)

let test_sanitizer_reuse_clears () =
  let arena, san, pool = sanitized Sanitizer.Track in
  let i = Arena.fresh arena ~level:1 in
  Pool.put pool i;
  let j = Pool.take pool ~level:1 in
  Alcotest.(check int) "recycled the freed slot" i j;
  Alcotest.(check bool) "flag cleared on reuse" false (Sanitizer.freed san i);
  (* The full cycle is legal again. *)
  Pool.put pool i;
  Alcotest.(check int) "recycled twice" i (Pool.take pool ~level:1)

let test_sanitizer_poison () =
  let arena, _san, pool = sanitized Sanitizer.Poison in
  let i = Arena.fresh arena ~level:1 in
  (Arena.get arena i).Node.key <- 42;
  Pool.put pool i;
  Alcotest.(check int) "freed key is poisoned" Sanitizer.poison_key
    (Arena.get arena i).Node.key

let test_sanitizer_strict_read () =
  let arena, _san, pool = sanitized Sanitizer.Strict in
  let i = Arena.fresh arena ~level:1 in
  ignore (Arena.get arena i);
  Pool.put pool i;
  Alcotest.check_raises "read after dealloc raises"
    (Sanitizer.Violation
       (Printf.sprintf "read after dealloc: slot %d is on a free list" i))
    (fun () -> ignore (Arena.get arena i));
  (* Reallocation makes the slot readable again. *)
  let j = Pool.take pool ~level:1 in
  Alcotest.(check int) "reuses the slot" i j;
  ignore (Arena.get arena i)

let test_sanitizer_off_is_silent () =
  let arena, san, pool = sanitized Sanitizer.Off in
  let i = Arena.fresh arena ~level:1 in
  Pool.put pool i;
  Alcotest.(check bool) "off mode tracks nothing" false (Sanitizer.freed san i);
  Pool.put pool i (* double put tolerated when off *)

let prop_levels =
  QCheck2.Test.make ~name:"fresh node shape matches requested level"
    ~count:200
    QCheck2.Gen.(int_range 1 24)
    (fun level ->
      let a = Arena.create ~capacity:4 in
      let i = Arena.fresh a ~level in
      let n = Arena.get a i in
      Node.level n = level && Array.length n.Node.upper = level - 1)

let () =
  Alcotest.run "arena"
    [
      ( "unit",
        [
          Alcotest.test_case "fresh sequence" `Quick test_fresh_sequence;
          Alcotest.test_case "fresh range" `Quick test_fresh_range;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "parallel fresh" `Quick test_parallel_fresh;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "double retire" `Quick test_sanitizer_double_retire;
          Alcotest.test_case "reuse clears flag" `Quick
            test_sanitizer_reuse_clears;
          Alcotest.test_case "poisoned key" `Quick test_sanitizer_poison;
          Alcotest.test_case "strict read" `Quick test_sanitizer_strict_read;
          Alcotest.test_case "off is silent" `Quick test_sanitizer_off_is_silent;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_levels ]);
    ]
