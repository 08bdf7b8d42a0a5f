(* Unit tests for the VBR primitives themselves: the allocation/retire
   lifecycle (Figure 1), the §2 ABA scenario, the double-retire guard, the
   rollback machinery, and the version invariants of Appendix A. *)

open Vbr_core
open Memsim

let setup ?(retire_threshold = 0) ?(n_threads = 2) () =
  let arena = Arena.create ~capacity:1_000 in
  let global = Global_pool.create ~max_level:4 in
  let vbr = Vbr.create_tuned ~retire_threshold ~arena ~global ~n_threads () in
  (arena, vbr)

let run_ckpt c f = Vbr.checkpoint c f

let test_alloc_shape () =
  let arena, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let i, b =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:3 ~key:42 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  let n = Arena.get arena i in
  Alcotest.(check int) "key" 42 n.Node.key;
  Alcotest.(check int) "birth = epoch at alloc" b (Atomic.get n.Node.birth);
  Alcotest.(check int) "retire is bottom" Node.no_epoch
    (Atomic.get n.Node.retire);
  Node.iter_words n (fun w ->
      let v = Atomic.get w in
      Alcotest.(check int) "next NULL" 0 (Packed.index v);
      Alcotest.(check int) "version = birth" b (Packed.version v);
      Alcotest.(check bool) "unmarked" false (Packed.is_marked v))

let test_alloc_sentinels () =
  (* n never-retired sentinels in one contiguous range: key, birth = the
     current epoch, retire = bottom, link0 = (next, max birth
     next_birth). None of them may reach a pool, so neither a rollback's
     pending flush nor the next allocation can hand one out. *)
  let arena = Arena.create ~capacity:1_000 in
  let global = Global_pool.create ~max_level:4 in
  let vbr = Vbr.create_tuned ~retire_threshold:0 ~arena ~global ~n_threads:2 () in
  ignore (Epoch.try_advance (Vbr.epoch vbr) ~expected:(Epoch.get (Vbr.epoch vbr)));
  let e = Epoch.get (Vbr.epoch vbr) in
  let n = 5 and next = 900 and next_birth = e + 7 in
  let base, b = Vbr.alloc_sentinels vbr ~n ~key:(-3) ~next ~next_birth in
  Alcotest.(check int) "birth is the current epoch" e b;
  Alcotest.(check int) "range covers the first fresh slots" 1 base;
  Alcotest.(check int) "arena claimed exactly n" n (Arena.allocated arena);
  for i = base to base + n - 1 do
    let nd = Arena.get arena i in
    let w = Atomic.get (Node.next0 nd) in
    Alcotest.(check int) "key" (-3) nd.Node.key;
    Alcotest.(check int) "level 1" 1 (Node.level nd);
    Alcotest.(check int) "birth" b (Atomic.get nd.Node.birth);
    Alcotest.(check int) "retire is bottom" Node.no_epoch
      (Atomic.get nd.Node.retire);
    Alcotest.(check int) "link0 index" next (Packed.index w);
    Alcotest.(check int) "link0 version = max birth next_birth"
      (max b next_birth) (Packed.version w);
    Alcotest.(check bool) "link0 unmarked" false (Packed.is_marked w)
  done;
  let _, b2 = Vbr.alloc_sentinels vbr ~n:1 ~key:0 ~next:0 ~next_birth:0 in
  Alcotest.(check int) "null next: version = birth" b2
    (Packed.version (Atomic.get (Node.next0 (Arena.get arena (base + n)))));
  let s = Vbr.total_stats vbr in
  Alcotest.(check int) "one Alloc per sentinel" (n + 1) s.Vbr.allocs;
  (* A rollback flushes the pending list; then allocate: the slot must be
     fresh, past the sentinels. *)
  let c = Vbr.ctx vbr ~tid:0 in
  let first = ref true in
  let i =
    run_ckpt c (fun () ->
        if !first then begin
          first := false;
          ignore
            (Epoch.try_advance (Vbr.epoch vbr)
               ~expected:(Epoch.get (Vbr.epoch vbr)));
          Vbr.validate_epoch c
        end;
        let i, _ = Vbr.alloc vbr ~tid:0 ~level:1 ~key:1 in
        Vbr.commit_alloc c i;
        i)
  in
  Alcotest.(check int) "next alloc is a fresh slot" (base + n + 1) i;
  Alcotest.(check int) "nothing recycled" 0 (Vbr.total_stats vbr).Vbr.recycled;
  Alcotest.(check int) "global pool untouched" 0 (Global_pool.approx_batches global)

let test_reallocation_epoch_advances () =
  (* Re-allocating a slot retired in the current epoch must bump the
     global epoch so the new birth strictly exceeds the old retire
     (Claim 6, part 4). retire_threshold = 0 recycles immediately. *)
  let _, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let i1, b1 =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:1 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  run_ckpt c (fun () -> Vbr.retire vbr ~tid:0 (i1, b1));
  let old_retire = Vbr.read_retire vbr i1 in
  let i2, b2 =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:2 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  Alcotest.(check int) "same slot recycled" i1 i2;
  Alcotest.(check bool) "new birth > old retire" true (b2 > old_retire);
  Alcotest.(check bool) "epoch advanced" true
    (Epoch.get (Vbr.epoch vbr) > b1)

let test_double_retire_guard () =
  let _, vbr = setup ~retire_threshold:100 () in
  let c = Vbr.ctx vbr ~tid:0 in
  let i, b =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:7 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  run_ckpt c (fun () -> Vbr.retire vbr ~tid:0 (i, b));
  let retires_before = (Vbr.ctx_stats c).Vbr.retires in
  run_ckpt c (fun () -> Vbr.retire vbr ~tid:0 (i, b));
  (* Stale-birth retire must also be rejected. *)
  run_ckpt c (fun () -> Vbr.retire vbr ~tid:0 (i, b - 1));
  Alcotest.(check int) "retire is once" retires_before (Vbr.ctx_stats c).Vbr.retires

let test_aba_scenario () =
  (* The §2 scenario. List n -> m -> k. T1 prepares to unlink m by CASing
     n.next from m to k, but stalls. Meanwhile T2 removes m, m's slot is
     recycled as d, and d is inserted between n and k. T1's stale CAS must
     now FAIL thanks to the versions. *)
  let _, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let mk key =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:key in
        Vbr.commit_alloc c i;
        (i, b))
  in
  let n, n_b = mk 10 in
  let m, m_b = mk 20 in
  let k, k_b = mk 30 in
  let link a a_b x x_b =
    run_ckpt c (fun () ->
        Alcotest.(check bool) "link" true
          (Vbr.update c a ~birth:a_b ~expected:0 ~expected_birth:a_b ~new_:x
             ~new_birth:x_b))
  in
  link m m_b k k_b;
  link n n_b m m_b;
  (* T1 "reads" its CAS operands here: (n, n_b), expected (m, m_b),
     new (k, k_b) — then stalls. *)
  (* T2: logically delete m, unlink it, retire it. *)
  run_ckpt c (fun () ->
      Alcotest.(check bool) "mark m" true (Vbr.mark c m ~birth:m_b);
      Alcotest.(check bool) "unlink m" true
        (Vbr.update c n ~birth:n_b ~expected:m ~expected_birth:m_b ~new_:k
           ~new_birth:k_b));
  run_ckpt c (fun () -> Vbr.retire vbr ~tid:0 (m, m_b));
  (* Recycle m's slot as d and insert d between n and k. *)
  let d, d_b = mk 25 in
  Alcotest.(check int) "d reuses m's slot" m d;
  Alcotest.(check bool) "d's birth exceeds m's" true (d_b > m_b);
  run_ckpt c (fun () ->
      ignore
        (Vbr.update c d ~birth:d_b ~expected:0 ~expected_birth:d_b ~new_:k
           ~new_birth:k_b);
      Alcotest.(check bool) "insert d after n" true
        (Vbr.update c n ~birth:n_b ~expected:k ~expected_birth:k_b ~new_:d
           ~new_birth:d_b));
  (* T1 wakes up and executes its stale CAS: n.next from (m, m_b-version)
     to (k, ...). Without versions this would succeed (n.next's index IS
     m's slot index). With versions it must fail. *)
  run_ckpt c (fun () ->
      Alcotest.(check bool) "stale CAS fails" false
        (Vbr.update c n ~birth:n_b ~expected:m ~expected_birth:m_b ~new_:k
           ~new_birth:k_b));
  (* And d is still linked. *)
  run_ckpt c (fun () ->
      let succ, succ_b = Vbr.get_next c n in
      Alcotest.(check int) "n still points at d" d succ;
      Alcotest.(check int) "with d's birth" d_b succ_b)

let test_mark_semantics () =
  let _, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let i, b =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:5 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  Alcotest.(check bool) "fresh unmarked" false (Vbr.is_marked c i ~birth:b);
  run_ckpt c (fun () ->
      Alcotest.(check bool) "mark succeeds" true (Vbr.mark c i ~birth:b));
  Alcotest.(check bool) "now marked" true (Vbr.is_marked c i ~birth:b);
  run_ckpt c (fun () ->
      Alcotest.(check bool) "second mark fails" false (Vbr.mark c i ~birth:b));
  (* A marked word is invalidated: updates must fail. *)
  run_ckpt c (fun () ->
      Alcotest.(check bool) "update on marked fails" false
        (Vbr.update c i ~birth:b ~expected:0 ~expected_birth:b ~new_:0
           ~new_birth:b));
  (* Stale-birth mark reports the node as already removed. *)
  Alcotest.(check bool) "stale birth reads as marked" true
    (Vbr.is_marked c i ~birth:(b - 1));
  run_ckpt c (fun () ->
      Alcotest.(check bool) "stale mark fails" false
        (Vbr.mark c i ~birth:(b - 1)))

let test_rollback_on_epoch_change () =
  (* A get_next between epoch changes must roll back; the checkpoint
     re-runs the body with a refreshed epoch and it then succeeds. *)
  let _, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let i, b =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:1 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  ignore b;
  let attempts = ref 0 in
  let bumped = ref false in
  let v =
    run_ckpt c (fun () ->
        incr attempts;
        if not !bumped then begin
          (* Simulate another thread moving the epoch mid-operation. *)
          bumped := true;
          ignore
            (Epoch.try_advance (Vbr.epoch vbr)
               ~expected:(Epoch.get (Vbr.epoch vbr)))
        end;
        let succ, _ = Vbr.get_next c i in
        succ)
  in
  Alcotest.(check int) "eventually reads" 0 v;
  Alcotest.(check int) "exactly one rollback" 2 !attempts;
  Alcotest.(check int) "rollback counted" 1 (Vbr.ctx_stats c).Vbr.rollbacks

let test_pending_recycled_on_rollback () =
  (* Appendix B, type 1: a node allocated after the checkpoint that never
     became reachable is returned to the allocation pool on rollback, so
     the next alloc reuses it immediately (Claim 22's flavour). *)
  let _, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let first = ref true in
  let seen = ref [] in
  let _ =
    run_ckpt c (fun () ->
        let i, _ = Vbr.alloc vbr ~tid:0 ~level:1 ~key:9 in
        seen := i :: !seen;
        if !first then begin
          first := false;
          ignore
            (Epoch.try_advance (Vbr.epoch vbr)
               ~expected:(Epoch.get (Vbr.epoch vbr)));
          (* Trigger a rollback after the alloc. *)
          ignore (Vbr.get_key c i)
        end;
        Vbr.commit_alloc c i;
        i)
  in
  match !seen with
  | [ second; first_alloc ] ->
      Alcotest.(check int) "slot recycled across rollback" first_alloc second
  | l -> Alcotest.failf "expected 2 allocs, saw %d" (List.length l)

let test_refresh_next_semantics () =
  let _, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let mk key =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:key in
        Vbr.commit_alloc c i;
        (i, b))
  in
  let a, a_b = mk 1 in
  let x, x_b = mk 2 in
  let y, y_b = mk 3 in
  run_ckpt c (fun () ->
      Alcotest.(check bool) "redirect from NULL" true
        (Vbr.refresh_next c a ~birth:a_b ~new_:x ~new_birth:x_b);
      Alcotest.(check bool) "redirect again (raw expected)" true
        (Vbr.refresh_next c a ~birth:a_b ~new_:y ~new_birth:y_b);
      let succ, _ = Vbr.get_next c a in
      Alcotest.(check int) "points at y" y succ;
      Alcotest.(check bool) "stale birth fails" false
        (Vbr.refresh_next c a ~birth:(a_b - 1) ~new_:x ~new_birth:x_b);
      Alcotest.(check bool) "mark a" true (Vbr.mark c a ~birth:a_b);
      Alcotest.(check bool) "marked word immutable" false
        (Vbr.refresh_next c a ~birth:a_b ~new_:x ~new_birth:x_b))

let test_heal_stale_edge () =
  (* Manufacture a garbage edge (version below the target's current
     birth) and check that healing redirects it — and that healthy,
     marked or re-allocated words are left alone. *)
  let arena, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let mk key =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:key in
        Vbr.commit_alloc c i;
        (i, b))
  in
  let p, p_b = mk 1 in
  let x, x_b = mk 2 in
  let sentinel, sentinel_b = mk 99 in
  run_ckpt c (fun () ->
      ignore (Vbr.refresh_next c p ~birth:p_b ~new_:x ~new_birth:x_b));
  (* Healthy edge: no heal. *)
  run_ckpt c (fun () ->
      Alcotest.(check bool) "healthy edge untouched" false
        (Vbr.heal_stale_edge c p ~birth:p_b ~to_:sentinel
           ~to_birth:sentinel_b));
  (* Recycle x: mark, retire, re-allocate the slot. *)
  run_ckpt c (fun () ->
      ignore (Vbr.mark c x ~birth:x_b);
      Vbr.retire vbr ~tid:0 (x, x_b));
  let x', x'_b = mk 3 in
  Alcotest.(check int) "slot reused" x x';
  Alcotest.(check bool) "birth advanced" true (x'_b > x_b);
  (* p's edge to the slot is now garbage: version < current birth. *)
  let w = Atomic.get (Memsim.Node.next0 (Arena.get arena p)) in
  Alcotest.(check bool) "edge is stale" true
    (Memsim.Packed.version w < x'_b);
  run_ckpt c (fun () ->
      Alcotest.(check bool) "garbage edge healed" true
        (Vbr.heal_stale_edge c p ~birth:p_b ~to_:sentinel
           ~to_birth:sentinel_b));
  run_ckpt c (fun () ->
      let succ, succ_b = Vbr.get_next c p in
      Alcotest.(check int) "redirected to sentinel" sentinel succ;
      Alcotest.(check int) "with sentinel's birth" sentinel_b succ_b);
  (* Stale caller birth: refused. *)
  run_ckpt c (fun () ->
      Alcotest.(check bool) "stale birth refused" false
        (Vbr.heal_stale_edge c p ~birth:(p_b - 1) ~to_:sentinel
           ~to_birth:sentinel_b))

let test_version_invariant_random () =
  (* Claim 10 flavour: after arbitrary single-threaded update/mark/retire
     traffic, every reachable-word version is >= the pointing node's birth
     and >= the target node's birth. *)
  let arena, vbr = setup ~retire_threshold:0 () in
  let c = Vbr.ctx vbr ~tid:0 in
  let rng = Random.State.make [| 7 |] in
  let live = ref [] in
  for _ = 1 to 500 do
    match Random.State.int rng 3 with
    | 0 ->
        let i, b =
          run_ckpt c (fun () ->
              let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:(Random.State.int rng 100) in
              Vbr.commit_alloc c i;
              (i, b))
        in
        live := (i, b) :: !live
    | 1 -> (
        match !live with
        | (x, x_b) :: rest when List.length !live >= 2 ->
            let y, y_b = List.nth rest (Random.State.int rng (List.length rest)) in
            run_ckpt c (fun () ->
                ignore
                  (Vbr.refresh_next c x ~birth:x_b ~new_:y ~new_birth:y_b))
        | _ -> ())
    | _ -> (
        match !live with
        | (x, x_b) :: rest ->
            run_ckpt c (fun () ->
                ignore (Vbr.mark c x ~birth:x_b);
                Vbr.retire vbr ~tid:0 (x, x_b));
            live := rest
        | [] -> ())
  done;
  List.iter
    (fun (i, b) ->
      let n = Arena.get arena i in
      if Atomic.get n.Node.birth = b then begin
        let w = Atomic.get (Node.next0 n) in
        Alcotest.(check bool) "version >= own birth" true
          (Packed.version w >= b);
        let tgt = Packed.index w in
        if tgt <> 0 then
          Alcotest.(check bool) "version >= target birth" true
            (Packed.version w >= Vbr.read_birth vbr tgt)
      end)
    !live

(* The node-layout contract: the level-0 next word is field 0 of the node
   block itself, the upper tower words are separate atomics, and every
   Atomic operation on word 0 leaves the node's other fields alone. *)
let test_layout_words () =
  let n = Node.make ~level:4 in
  Alcotest.(check bool) "next0 n == word n 0" true
    (Node.next0 n == Node.word n 0);
  Alcotest.(check bool) "word 0 is the node block" true
    (Obj.repr (Node.next0 n) == Obj.repr n);
  let words = List.init 4 (Node.word n) in
  List.iteri
    (fun i w ->
      List.iteri
        (fun j w' ->
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "word %d != word %d" i j)
              false (w == w'))
        words;
      Alcotest.(check bool) "not the birth word" false (w == n.Node.birth);
      Alcotest.(check bool) "not the retire word" false (w == n.Node.retire))
    words;
  Alcotest.check_raises "no word at level"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Node.word n 4));
  let leaf = Node.make ~level:1 in
  Alcotest.check_raises "level-1 node has one word"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Node.word leaf 1))

let test_layout_word0_isolated () =
  let n = Node.make ~level:2 in
  n.Node.key <- 42;
  Atomic.set n.Node.birth 5;
  Atomic.set n.Node.retire 7;
  let upper = Node.word n 1 in
  Atomic.set upper (Packed.pack ~marked:false ~index:9 ~version:3);
  let check_fields what =
    Alcotest.(check int) (what ^ ": key") 42 n.Node.key;
    Alcotest.(check int) (what ^ ": level") 2 (Node.level n);
    Alcotest.(check int) (what ^ ": birth") 5 (Atomic.get n.Node.birth);
    Alcotest.(check int) (what ^ ": retire") 7 (Atomic.get n.Node.retire);
    Alcotest.(check int) (what ^ ": upper word")
      (Packed.pack ~marked:false ~index:9 ~version:3)
      (Atomic.get upper)
  in
  let w0 = Node.next0 n in
  let rng = Random.State.make [| 7 |] in
  for step = 1 to 200 do
    let v =
      Packed.pack ~marked:(Random.State.bool rng)
        ~index:(Random.State.int rng 1000)
        ~version:(Random.State.int rng 1000)
    in
    let cur = Atomic.get w0 in
    if step land 1 = 0 then begin
      Alcotest.(check bool) "cas from current succeeds" true
        (Atomic.compare_and_set w0 cur v);
      Alcotest.(check bool) "cas from stale fails" false
        (cur <> v && Atomic.compare_and_set w0 cur cur)
    end
    else
      Alcotest.(check int) "exchange returns the old word" cur
        (Atomic.exchange w0 v);
    Alcotest.(check int) "word 0 holds the new value" v (Atomic.get w0);
    check_fields (Printf.sprintf "step %d" step)
  done

let test_layout_heap_words () =
  (* The empty tower of a level-1 node is one static atom shared by every
     such node, so it is not part of the node's own footprint: what is
     left is the 6-word record plus the two 2-word epoch cells. *)
  let n = Node.make ~level:1 in
  Alcotest.(check bool) "level-1 nodes share the empty tower" true
    (n.Node.upper == (Node.make ~level:1).Node.upper);
  let words =
    Obj.reachable_words (Obj.repr n)
    - Obj.reachable_words (Obj.repr n.Node.upper)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fresh level-1 node is <= 10 heap words (got %d)" words)
    true (words <= 10)

let test_layout_access_identity () =
  (* An Access hook sees one physical word for every level-0 primitive on
     a slot: the hop load, the versioned CAS and the mark CAS. *)
  let arena, vbr = setup () in
  let c = Vbr.ctx vbr ~tid:0 in
  let i, b =
    run_ckpt c (fun () ->
        let i, b = Vbr.alloc vbr ~tid:0 ~level:1 ~key:5 in
        Vbr.commit_alloc c i;
        (i, b))
  in
  let n = Arena.get arena i in
  (* The hook goes in inside the checkpoint, so the checkpoint's own
     epoch load is not recorded. *)
  let traced f =
    run_ckpt c (fun () ->
        let seen = ref [] in
        Access.install (fun o -> seen := o :: !seen);
        Fun.protect ~finally:Access.uninstall f;
        List.rev !seen)
  in
  let words kind ops =
    List.filter_map
      (fun (o : Access.op) -> if o.kind = kind then Some o.word else None)
      ops
  in
  (* get_next_raw loads the next word first, then the epoch. *)
  let hop =
    List.hd
      (words Access.Read
         (traced (fun () -> ignore (Vbr.get_next_raw c ~lvl:0 i))))
  in
  let upd =
    words Access.Cas
      (traced (fun () ->
           ignore
             (Vbr.update c i ~birth:b ~expected:0 ~expected_birth:b ~new_:0
                ~new_birth:b)))
  in
  let mrk =
    words Access.Cas (traced (fun () -> ignore (Vbr.mark c i ~birth:b)))
  in
  Alcotest.(check int) "update CASes one word" 1 (List.length upd);
  Alcotest.(check int) "mark CASes one word" 1 (List.length mrk);
  Alcotest.(check bool) "hop word is the node block" true (hop == Obj.repr n);
  Alcotest.(check bool) "update hits the hop word" true (List.hd upd == hop);
  Alcotest.(check bool) "mark hits the hop word" true (List.hd mrk == hop);
  Alcotest.(check bool) "mark took effect" true (Vbr.is_marked c i ~birth:b)

let () =
  Alcotest.run "vbr_prim"
    [
      ( "unit",
        [
          Alcotest.test_case "alloc shape" `Quick test_alloc_shape;
          Alcotest.test_case "alloc_sentinels" `Quick test_alloc_sentinels;
          Alcotest.test_case "reallocation advances epoch" `Quick
            test_reallocation_epoch_advances;
          Alcotest.test_case "double-retire guard" `Quick
            test_double_retire_guard;
          Alcotest.test_case "ABA scenario (section 2)" `Quick
            test_aba_scenario;
          Alcotest.test_case "mark semantics" `Quick test_mark_semantics;
          Alcotest.test_case "rollback on epoch change" `Quick
            test_rollback_on_epoch_change;
          Alcotest.test_case "pending recycled on rollback" `Quick
            test_pending_recycled_on_rollback;
          Alcotest.test_case "refresh_next semantics" `Quick
            test_refresh_next_semantics;
          Alcotest.test_case "heal_stale_edge" `Quick test_heal_stale_edge;
          Alcotest.test_case "version invariant (random)" `Quick
            test_version_invariant_random;
        ] );
      ( "layout",
        [
          Alcotest.test_case "word identity" `Quick test_layout_words;
          Alcotest.test_case "word 0 isolated" `Quick
            test_layout_word0_isolated;
          Alcotest.test_case "heap words" `Quick test_layout_heap_words;
          Alcotest.test_case "access identity" `Quick
            test_layout_access_identity;
        ] );
    ]
