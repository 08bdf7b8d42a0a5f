(* vbr-verify test suite. Drives the same [Verify] library that backs
   bin/vbr_verify.exe over the compiled fixture tree in
   verify_fixtures/ (a real dune library, because the verifier consumes
   .cmt typed trees) and asserts exact (rule, file, line) matches for
   each seeded violation, plus the clean status of every good twin and
   of the suppression-granularity file. The alias fixture doubles as
   the raw-atomic false-negative regression: the untyped linter is run
   over the same sources and must see nothing where the typed rule sees
   two findings. Finally asserts the shipped tree is finding-free via
   the @verify report built by the root dune rule (a dep of this
   test). *)

let fixture_root = "verify_fixtures"
let fixture_run = lazy (Verify.Driver.run ~root:fixture_root ())
let fixture_findings = lazy (fst (Lazy.force fixture_run))

let pp_findings fs =
  String.concat "\n"
    (List.map
       (fun (f : Lint_core.Finding.t) ->
         Printf.sprintf "%s:%d [%s]" f.file f.line f.rule)
       fs)

(* The seeded violation at (file, line) must be flagged with exactly
   [rule]. *)
let check_flagged ~rule ~file ~line () =
  let fs = Lazy.force fixture_findings in
  let hit =
    List.exists
      (fun (f : Lint_core.Finding.t) ->
        f.rule = rule && f.file = file && f.line = line)
      fs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s flagged at %s:%d (got:\n%s)" rule file line
       (pp_findings fs))
    true hit

(* Nothing in [file] outside the seeded lines may be flagged: the good
   twins prove the interprocedural coverage propagation. *)
let check_only_seeded ~file ~lines () =
  let fs = Lazy.force fixture_findings in
  let offending =
    List.filter
      (fun (f : Lint_core.Finding.t) ->
        f.file = file && not (List.mem f.line lines))
      fs
  in
  Alcotest.(check string)
    (Printf.sprintf "%s has findings only at seeded lines" file)
    "" (pp_findings offending)

let test_fixture_count () =
  (* One finding per seeded violation and nothing else. *)
  Alcotest.(check int) "total fixture findings" 11
    (List.length (Lazy.force fixture_findings))

let test_cmt_trees_loaded () =
  (* Guards the whole suite against a silently-empty scan: zero loaded
     trees would make every "clean" assertion pass vacuously. *)
  let _, nfiles = Lazy.force fixture_run in
  Alcotest.(check int) "typed trees loaded from the fixture libraries" 9 nfiles

let test_suppression_granularity () =
  (* vbr_fx_suppress.ml re-seeds three violations other fixture files
     prove are caught, silenced at expr, binding and file granularity
     with the same [@vbr.allow] vbr-lint honors. *)
  let offending =
    List.filter
      (fun (f : Lint_core.Finding.t) ->
        f.file = "lib/dstruct/vbr_fx_suppress.ml")
      (Lazy.force fixture_findings)
  in
  Alcotest.(check string) "suppressed at all three levels" ""
    (pp_findings offending)

let test_syntactic_false_negative () =
  (* Satellite regression for the untyped raw-atomic rule: the alias and
     open spellings escape the parse-tree matcher entirely... *)
  let raw =
    match Lint.Registry.find "raw-atomic" with
    | Some r -> r
    | None -> Alcotest.fail "lint registry lost raw-atomic"
  in
  let lint_fs = Lint.Driver.run ~rules:[ raw ] ~root:fixture_root () in
  let in_alias =
    List.filter
      (fun (f : Lint_core.Finding.t) ->
        f.file = "lib/dstruct/vbr_fx_alias.ml")
      lint_fs
  in
  Alcotest.(check string) "untyped linter misses both spellings" ""
    (pp_findings in_alias);
  (* ...while the typed rule resolves both to Stdlib.Atomic.get. *)
  let verify_hits =
    List.filter
      (fun (f : Lint_core.Finding.t) ->
        f.file = "lib/dstruct/vbr_fx_alias.ml" && f.rule = "raw-atomic")
      (Lazy.force fixture_findings)
  in
  Alcotest.(check int) "typed rule catches both" 2 (List.length verify_hits)

let test_rule_registry () =
  Alcotest.(check (list string))
    "registry lists the documented rules"
    [
      "checkpoint-dominance";
      "retire-taint";
      "guard-extent";
      "blocking-in-critical-section";
      "raw-atomic";
    ]
    (List.map (fun (r : Verify.Registry.rule) -> r.name) Verify.Registry.all)

let test_tree_clean () =
  (* verify_report.json is the target of the root @verify rule and a
     declared dep of this test: dune already failed the build if the
     tree had findings, so here we just pin the artifact's shape. *)
  let ic = open_in "../verify_report.json" in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let has_sub sub =
    let ls = String.length sub and lb = String.length body in
    let rec go i = i + ls <= lb && (String.sub body i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report says zero findings" true
    (has_sub {|"finding_count":0|});
  Alcotest.(check bool) "report is vbr-verify's" true
    (has_sub {|"tool":"vbr-verify"|})

let test_sarif_shape () =
  (* verify.sarif rides along from the same rule; pin the SARIF 2.1.0
     envelope GitHub code scanning requires. *)
  let ic = open_in "../verify.sarif" in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let has_sub sub =
    let ls = String.length sub and lb = String.length body in
    let rec go i = i + ls <= lb && (String.sub body i ls = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "sarif contains %s" sub) true
        (has_sub sub))
    [
      {|"version":"2.1.0"|};
      {|"name":"vbr-verify"|};
      {|"checkpoint-dominance"|};
      {|"results":[]|};
    ]

let violation_cases =
  [
    (* checkpoint moved to the callee and lost *)
    ("checkpoint-dominance", "lib/dstruct/vbr_fx_ckpt.ml", 11);
    (* optimistic read after commit_alloc, no refresh/checkpoint *)
    ("checkpoint-dominance", "lib/dstruct/vbr_fx_ckpt.ml", 31);
    (* retire-then-deref split across a helper *)
    ("retire-taint", "lib/dstruct/vbr_fx_retire.ml", 15);
    (* same-function use-after-retire *)
    ("retire-taint", "lib/dstruct/vbr_fx_retire.ml", 22);
    (* guard dropped before the extracted traversal *)
    ("guard-extent", "lib/dstruct/fx_guard.ml", 13);
    (* Mutex.lock two calls deep inside a checkpoint *)
    ("blocking-in-critical-section", "lib/dstruct/vbr_fx_block.ml", 10);
    (* raw Atomic behind a module alias *)
    ("raw-atomic", "lib/dstruct/vbr_fx_alias.ml", 12);
    (* raw Atomic behind an open *)
    ("raw-atomic", "lib/dstruct/vbr_fx_alias.ml", 15);
    (* Obj.magic to an Atomic.t outside lib/memsim/node.ml *)
    ("raw-atomic", "lib/dstruct/fx_node_cast.ml", 11);
    (* plain read of Node.link0 *)
    ("raw-atomic", "lib/dstruct/fx_node_cast.ml", 14);
    (* plain write of Node.link0 *)
    ("raw-atomic", "lib/dstruct/fx_node_cast.ml", 17);
  ]

(* Good-twin coverage: per file, only the seeded lines may fire. *)
let twin_cases =
  [
    ("lib/dstruct/vbr_fx_ckpt.ml", [ 11; 31 ]);
    ("lib/dstruct/vbr_fx_retire.ml", [ 15; 22 ]);
    ("lib/dstruct/fx_guard.ml", [ 13 ]);
    ("lib/dstruct/vbr_fx_block.ml", [ 10 ]);
    ("lib/dstruct/fx_intf.ml", []);
    ("lib/dstruct/fx_node_cast.ml", [ 11; 14; 17 ]);
    (* the cast's exempt home: the same trick, no findings *)
    ("lib/memsim/node.ml", []);
  ]

let () =
  Alcotest.run "verify"
    [
      ( "violations",
        List.map
          (fun (rule, file, line) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s:%d" rule file line)
              `Quick
              (check_flagged ~rule ~file ~line))
          violation_cases );
      ( "clean twins",
        List.map
          (fun (file, lines) ->
            Alcotest.test_case file `Quick (check_only_seeded ~file ~lines))
          twin_cases );
      ( "meta",
        [
          Alcotest.test_case "cmt trees loaded" `Quick test_cmt_trees_loaded;
          Alcotest.test_case "finding count" `Quick test_fixture_count;
          Alcotest.test_case "suppression granularity" `Quick
            test_suppression_granularity;
          Alcotest.test_case "syntactic false negative" `Quick
            test_syntactic_false_negative;
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
          Alcotest.test_case "shipped tree clean" `Quick test_tree_clean;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
        ] );
    ]
