(* Lifecycle tracing (Obs.Trace) and the offline invariant checker
   (Trace_check): ring overwrite semantics, CSV roundtrip, zero
   violations on real traced stress runs under every scheme, and one
   injected-fault fixture per checker rule. *)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ring semantics.                                                     *)
(* ------------------------------------------------------------------ *)

let test_ring_overwrite () =
  let t = Obs.Trace.create ~capacity:8 ~n_threads:1 ~scheme:"TEST" () in
  let r = Obs.Trace.ring t ~tid:0 in
  for i = 0 to 19 do
    Obs.Trace.emit r Obs.Trace.Alloc ~slot:(i + 1) ~v1:i ~v2:0 ~epoch:0
  done;
  check_int "dropped counts overwritten rows" 12 (Obs.Trace.dropped t);
  let d = Obs.Trace.dump t in
  check_int "dump keeps capacity rows" 8 (Array.length d.Obs.Trace.d_events);
  check_int "d_dropped" 12 d.Obs.Trace.d_dropped;
  (* The survivors are the newest 8 emissions, in emission order. *)
  Array.iteri
    (fun j e ->
      check_int "surviving seq" (12 + j) e.Obs.Trace.e_seq;
      check_int "surviving slot" (12 + j + 1) e.Obs.Trace.e_slot)
    d.Obs.Trace.d_events

let test_unattached_records_nothing () =
  (* A trace that is never attached to a backend stays empty even while
     the instance runs a workload (every hook is a match on None). *)
  let t = Obs.Trace.create ~capacity:64 ~n_threads:1 ~scheme:"EBR" () in
  let inst =
    Harness.Registry.make ~structure:"list" ~scheme:"EBR" ~n_threads:1
      ~range:64 ~capacity:10_000 ()
  in
  for k = 0 to 63 do
    ignore (inst.Harness.Registry.insert ~tid:0 k);
    ignore (inst.Harness.Registry.delete ~tid:0 k)
  done;
  let d = Obs.Trace.dump t in
  check_int "no events" 0 (Array.length d.Obs.Trace.d_events);
  check_int "no drops" 0 d.Obs.Trace.d_dropped

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      match Obs.Trace.kind_of_string (Obs.Trace.kind_to_string k) with
      | Some k' -> Alcotest.(check bool) "kind roundtrip" true (k = k')
      | None -> Alcotest.fail "kind_of_string failed on kind_to_string output")
    Obs.Trace.all_kinds;
  Alcotest.(check bool)
    "unknown kind" true
    (Obs.Trace.kind_of_string "no-such-kind" = None)

let test_csv_roundtrip () =
  let t = Obs.Trace.create ~capacity:16 ~n_threads:2 ~scheme:"VBR" () in
  let r0 = Obs.Trace.ring t ~tid:0 and r1 = Obs.Trace.ring t ~tid:1 in
  Obs.Trace.emit r0 Obs.Trace.Alloc ~slot:3 ~v1:1 ~v2:0 ~epoch:1;
  Obs.Trace.emit r1 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:1;
  Obs.Trace.emit r0 Obs.Trace.Retire ~slot:3 ~v1:1 ~v2:2 ~epoch:2;
  Obs.Trace.emit r1 Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:(-1);
  let d = Obs.Trace.dump t in
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.write_csv path d;
      let d' = Obs.Trace.load_csv path in
      Alcotest.(check string) "scheme" d.Obs.Trace.d_scheme d'.Obs.Trace.d_scheme;
      check_int "threads" d.Obs.Trace.d_threads d'.Obs.Trace.d_threads;
      check_int "capacity" d.Obs.Trace.d_capacity d'.Obs.Trace.d_capacity;
      check_int "dropped" d.Obs.Trace.d_dropped d'.Obs.Trace.d_dropped;
      Alcotest.(check bool)
        "events identical" true
        (d.Obs.Trace.d_events = d'.Obs.Trace.d_events))

(* ------------------------------------------------------------------ *)
(* Real runs: every scheme's trace validates, untruncated.              *)
(* ------------------------------------------------------------------ *)

let traced_stress scheme () =
  let threads = 4 and range = 512 and total_ops = 4_000 in
  let trace =
    Obs.Trace.create ~capacity:(1 lsl 15) ~n_threads:threads ~scheme ()
  in
  let make () =
    Harness.Registry.make ~structure:"hash" ~scheme ~n_threads:threads ~range
      ~capacity:60_000 ~trace ()
  in
  let _mops, _inst =
    Harness.Throughput.run_ops ~make ~profile:Harness.Workload.update_intensive
      ~threads ~range ~total_ops ()
  in
  let d = Obs.Trace.dump trace in
  Alcotest.(check bool)
    "trace non-empty" true
    (Array.length d.Obs.Trace.d_events > 0);
  check_int "untruncated" 0 d.Obs.Trace.d_dropped;
  let { Trace_check.findings; truncated } =
    Trace_check.check ~file:(scheme ^ ".csv") d
  in
  Alcotest.(check bool) "not truncated" false truncated;
  match findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d violation(s) on a clean %s run, first: %s"
        (List.length findings) scheme
        (Lint_core.Finding.to_string f)

(* ------------------------------------------------------------------ *)
(* Injected faults: each rule fires on its fixture.                     *)
(* ------------------------------------------------------------------ *)

let ev ~tid ~seq kind ~slot ~v1 ~v2 ~epoch =
  {
    Obs.Trace.e_tid = tid;
    e_seq = seq;
    e_t_ns = seq * 10;
    e_kind = kind;
    e_slot = slot;
    e_v1 = v1;
    e_v2 = v2;
    e_epoch = epoch;
  }

let mk_dump ?(dropped = 0) events =
  {
    Obs.Trace.d_scheme = "TEST";
    d_threads = 4;
    d_capacity = 1024;
    d_dropped = dropped;
    d_events = Array.of_list events;
  }

let rules fs = List.map (fun f -> f.Lint_core.Finding.rule) fs

let expect_rule name fixture rule ~substring =
  let { Trace_check.findings; _ } =
    Trace_check.check ~file:"fixture.csv" (mk_dump fixture)
  in
  match
    List.find_opt
      (fun f ->
        f.Lint_core.Finding.rule = rule
        &&
        let m = f.Lint_core.Finding.message and s = substring in
        let lm = String.length m and ls = String.length s in
        let rec at i = i + ls <= lm && (String.sub m i ls = s || at (i + 1)) in
        at 0)
      findings
  with
  | Some _ -> ()
  | None ->
      Alcotest.failf "%s: no [%s] finding mentioning %S (got: %s)" name rule
        substring
        (String.concat "; " (rules findings))

let expect_clean name fixture =
  let { Trace_check.findings; _ } =
    Trace_check.check ~file:"fixture.csv" (mk_dump fixture)
  in
  if findings <> [] then
    Alcotest.failf "%s: expected clean, got %s" name
      (String.concat "; " (List.map Lint_core.Finding.to_string findings))

let test_double_retire () =
  expect_rule "double retire"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:7 ~v1:1 ~v2:0 ~epoch:0;
      ev ~tid:0 ~seq:1 Obs.Trace.Retire ~slot:7 ~v1:1 ~v2:2 ~epoch:0;
      ev ~tid:1 ~seq:2 Obs.Trace.Retire ~slot:7 ~v1:1 ~v2:2 ~epoch:0;
    ]
    "trace-lifecycle" ~substring:"double retire";
  (* The legitimate cycle is clean. *)
  expect_clean "retire cycle"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:7 ~v1:1 ~v2:0 ~epoch:0;
      ev ~tid:0 ~seq:1 Obs.Trace.Retire ~slot:7 ~v1:1 ~v2:2 ~epoch:0;
      ev ~tid:0 ~seq:2 Obs.Trace.Reclaim ~slot:7 ~v1:1 ~v2:2 ~epoch:0;
      ev ~tid:0 ~seq:3 Obs.Trace.Reuse ~slot:7 ~v1:0 ~v2:0 ~epoch:0;
      ev ~tid:0 ~seq:4 Obs.Trace.Alloc ~slot:7 ~v1:3 ~v2:0 ~epoch:0;
    ]

let test_reclaim_before_retire () =
  expect_rule "reclaim before retire"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:9 ~v1:1 ~v2:0 ~epoch:0;
      ev ~tid:0 ~seq:1 Obs.Trace.Reclaim ~slot:9 ~v1:1 ~v2:2 ~epoch:0;
    ]
    "trace-lifecycle" ~substring:"before its retire"

let test_guarded_reclaim () =
  (* Index guard (HP-style): thread 1 protects slot 5 before thread 0
     retires it; reclaiming while the guard is up is the use-after-free
     HP scans exist to prevent. *)
  let acquire_then_reclaim release =
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:5 ~v1:0 ~v2:0 ~epoch:0;
      ev ~tid:1 ~seq:1 Obs.Trace.Guard_acquire ~slot:5 ~v1:0 ~v2:0 ~epoch:2;
    ]
    @ (if release then
         [ ev ~tid:1 ~seq:2 Obs.Trace.Guard_release ~slot:0 ~v1:0 ~v2:0 ~epoch:2 ]
       else [])
    @ [
        ev ~tid:0 ~seq:3 Obs.Trace.Retire ~slot:5 ~v1:0 ~v2:0 ~epoch:0;
        ev ~tid:0 ~seq:4 Obs.Trace.Reclaim ~slot:5 ~v1:0 ~v2:0 ~epoch:0;
      ]
  in
  expect_rule "guarded reclaim (index)"
    (acquire_then_reclaim false)
    "trace-guard-reclaim" ~substring:"still covers it";
  expect_clean "released guard" (acquire_then_reclaim true);
  (* A guard published after the retire does not count: validation would
     have caught the stale pointer, which is exactly what the schemes'
     protect loops re-check. *)
  expect_clean "late guard"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:5 ~v1:0 ~v2:0 ~epoch:0;
      ev ~tid:0 ~seq:1 Obs.Trace.Retire ~slot:5 ~v1:0 ~v2:0 ~epoch:0;
      ev ~tid:1 ~seq:2 Obs.Trace.Guard_acquire ~slot:5 ~v1:0 ~v2:0 ~epoch:2;
      ev ~tid:0 ~seq:3 Obs.Trace.Reclaim ~slot:5 ~v1:0 ~v2:0 ~epoch:0;
    ];
  (* Interval guard (EBR/HE/IBR-style): reservation [5, +inf) overlaps a
     node with lifetime [6, 8]. *)
  expect_rule "guarded reclaim (interval)"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:7 ~v1:6 ~v2:0 ~epoch:0;
      ev ~tid:1 ~seq:1 Obs.Trace.Guard_acquire ~slot:0 ~v1:5 ~v2:(-1) ~epoch:0;
      ev ~tid:0 ~seq:2 Obs.Trace.Retire ~slot:7 ~v1:6 ~v2:8 ~epoch:0;
      ev ~tid:0 ~seq:3 Obs.Trace.Reclaim ~slot:7 ~v1:6 ~v2:8 ~epoch:0;
    ]
    "trace-guard-reclaim" ~substring:"still covers it";
  (* A disjoint reservation is clean: [10, +inf) cannot pin [6, 8]. *)
  expect_clean "disjoint interval"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Alloc ~slot:7 ~v1:6 ~v2:0 ~epoch:0;
      ev ~tid:1 ~seq:1 Obs.Trace.Guard_acquire ~slot:0 ~v1:10 ~v2:(-1) ~epoch:0;
      ev ~tid:0 ~seq:2 Obs.Trace.Retire ~slot:7 ~v1:6 ~v2:8 ~epoch:0;
      ev ~tid:0 ~seq:3 Obs.Trace.Reclaim ~slot:7 ~v1:6 ~v2:8 ~epoch:0;
    ]

let test_epoch_rules () =
  expect_rule "epoch went backwards"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:5;
      ev ~tid:0 ~seq:1 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:3;
    ]
    "trace-epoch-monotonic" ~substring:"backwards";
  (* Per thread: another thread at a lower epoch is not a violation. *)
  expect_clean "cross-thread epochs"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:5;
      ev ~tid:1 ~seq:1 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:3;
    ];
  expect_rule "non-unit advance"
    [ ev ~tid:0 ~seq:0 Obs.Trace.Epoch_advance ~slot:0 ~v1:4 ~v2:6 ~epoch:6 ]
    "trace-epoch-advance" ~substring:"not one tick";
  expect_rule "duplicate advance"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Epoch_advance ~slot:0 ~v1:4 ~v2:5 ~epoch:5;
      ev ~tid:1 ~seq:1 Obs.Trace.Epoch_advance ~slot:0 ~v1:4 ~v2:5 ~epoch:5;
    ]
    "trace-epoch-advance" ~substring:"twice"

let test_rollback_scope () =
  expect_rule "rollback without checkpoint"
    [ ev ~tid:0 ~seq:0 Obs.Trace.Rollback ~slot:0 ~v1:1 ~v2:2 ~epoch:2 ]
    "trace-rollback-scope" ~substring:"without an armed checkpoint";
  expect_clean "rollback inside checkpoint"
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:1;
      ev ~tid:0 ~seq:1 Obs.Trace.Rollback ~slot:0 ~v1:1 ~v2:2 ~epoch:2;
    ]

let test_trace_order () =
  expect_rule "seq inversion"
    [
      ev ~tid:0 ~seq:5 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:1;
      ev ~tid:1 ~seq:5 Obs.Trace.Checkpoint ~slot:0 ~v1:0 ~v2:0 ~epoch:1;
    ]
    "trace-order" ~substring:"does not increase"

let test_truncation_policy () =
  (* A truncated trace skips the lifecycle/guard/rollback rules (their
     pre-history is gone) but keeps the epoch rules. *)
  let fixture =
    [
      ev ~tid:0 ~seq:0 Obs.Trace.Retire ~slot:7 ~v1:1 ~v2:2 ~epoch:0;
      ev ~tid:1 ~seq:1 Obs.Trace.Retire ~slot:7 ~v1:1 ~v2:2 ~epoch:0;
      ev ~tid:0 ~seq:2 Obs.Trace.Epoch_advance ~slot:0 ~v1:4 ~v2:6 ~epoch:6;
    ]
  in
  let { Trace_check.findings; truncated } =
    Trace_check.check ~file:"fixture.csv" (mk_dump ~dropped:3 fixture)
  in
  Alcotest.(check bool) "flagged truncated" true truncated;
  Alcotest.(check (list string))
    "only epoch rules ran" [ "trace-epoch-advance" ] (rules findings);
  (* The same events untruncated flag the double retire too. *)
  let { Trace_check.findings; truncated } =
    Trace_check.check ~file:"fixture.csv" (mk_dump fixture)
  in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check (list string))
    "both rules ran"
    [ "trace-epoch-advance"; "trace-lifecycle" ]
    (rules findings)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overwrite at capacity" `Quick test_ring_overwrite;
          Alcotest.test_case "unattached records nothing" `Quick
            test_unattached_records_nothing;
          Alcotest.test_case "kind roundtrip" `Quick test_kind_roundtrip;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
        ] );
      ( "clean runs",
        List.map
          (fun scheme ->
            Alcotest.test_case scheme `Quick (traced_stress scheme))
          Harness.Registry.schemes );
      ( "checker",
        [
          Alcotest.test_case "double retire" `Quick test_double_retire;
          Alcotest.test_case "reclaim before retire" `Quick
            test_reclaim_before_retire;
          Alcotest.test_case "guarded reclaim" `Quick test_guarded_reclaim;
          Alcotest.test_case "epoch rules" `Quick test_epoch_rules;
          Alcotest.test_case "rollback scope" `Quick test_rollback_scope;
          Alcotest.test_case "trace order" `Quick test_trace_order;
          Alcotest.test_case "truncation policy" `Quick test_truncation_policy;
        ] );
    ]
