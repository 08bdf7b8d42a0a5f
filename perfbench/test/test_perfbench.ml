(* Self-tests of the benchmark. Each workload is shrunk to a small table
   and a short window so the suite stays quick; the code paths are the
   ones a full run takes. *)

open Perfbench

let kv_bin = ref ""

let small (w : Workloads.t) =
  { w with range = min w.range 256; buckets = min w.buckets 256; setups = Bench.segments; ladder_ops = 2_000 }

let config ?(inject = 0) ~trace (w : Workloads.t) =
  if not (Sys.file_exists "out") then Sys.mkdir "out" 0o755;
  { Bench.workload = small w; seed = 11; seconds = 0.4; trace; kv_bin = !kv_bin; out_dir = "out"; inject }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let same_seed_same_stream () =
  let mix = Workloads.read_heavy in
  let a = Opstream.prefix ~seed:42 ~stream:3 ~range:1000 mix 10_000 in
  let b = Opstream.prefix ~seed:42 ~stream:3 ~range:1000 mix 10_000 in
  let c = Opstream.prefix ~seed:43 ~stream:3 ~range:1000 mix 10_000 in
  Alcotest.(check bool) "same seed, same ops" true (a = b);
  Alcotest.(check bool) "other seed, other ops" false (a = c);
  let contains = Array.fold_left (fun acc op -> if op land 3 = 0 then acc + 1 else acc) 0 a in
  Alcotest.(check bool) "mix is about 90% contains" true (contains > 8_700 && contains < 9_300);
  Array.iter (fun op -> assert (Opstream.key_of op >= 0 && Opstream.key_of op < 1000)) a

(* A wrong expected state must surface as failed ops, never as a clean
   run. The known lost-insert bug can only add failures, so the bound is
   a lower one. *)
let injected_fault name () =
  let w = Option.get (Workloads.find name) in
  let inject = 3 in
  let r = Bench.run (config ~inject ~trace:false w) in
  Alcotest.(check bool) "not correct" false r.correct;
  if r.failed < inject then
    Alcotest.failf "failed %d < %d injected; failures: %s" r.failed inject (String.concat "; " r.failures)

let every_metric_with_unit name () =
  let w = Option.get (Workloads.find name) in
  List.iter
    (fun trace ->
      let r = Bench.run (config ~trace w) in
      let line = Report.json_line ~trace r in
      Alcotest.(check (list string))
        "metric order" (List.map fst (Report.names ~trace)) (List.map fst r.metrics);
      List.iter
        (fun (metric, unit) ->
          let v = List.assoc metric r.metrics in
          if not (Float.is_finite v) then Alcotest.failf "%s: %s is not finite" name metric;
          if not (contains line (Printf.sprintf "%S: {\"value\": " metric)) then
            Alcotest.failf "%s: %s missing from the result line" name metric;
          if not (contains line (Printf.sprintf "\"unit\": %S" unit)) then
            Alcotest.failf "%s: unit %s missing from the result line" name unit)
        (Report.names ~trace);
      Alcotest.(check bool) "attempted" true (r.attempted >= 1))
    [ false; true ]

let () =
  Bench.child_entry ();
  Arg.parse [ ("--kv-bin", Arg.Set_string kv_bin, "PATH vbr-kv executable") ] ignore "test_perfbench";
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  Alcotest.run ~argv:[| "test_perfbench" |] "perfbench"
    [
      ("opstream", [ Alcotest.test_case "same seed, same op stream" `Quick same_seed_same_stream ]);
      ( "injected fault",
        [ Alcotest.test_case "hash-read" `Quick (injected_fault "hash-read") ] );
      ("metrics", List.map (fun n -> Alcotest.test_case n `Quick (every_metric_with_unit n)) names);
    ]
