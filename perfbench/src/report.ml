(* Metric names and units (mirrored in BENCHMARK.json), the human table
   and the one-line JSON result. *)

let end_to_end =
  [
    ("throughput_mops", "Mops/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("mem_table_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("memsim.hop_ns", "ns");
    ("memsim.slots_per_key", "slot/key");
    ("memsim.heap_bytes_per_slot", "B/slot");
    ("memsim.recycle_ratio", "ratio");
    ("memsim.global_pool_ops_per_kop", "1/kop");
    ("vbr.get_next_ns", "ns");
    ("vbr.checkpoint_ns", "ns");
    ("vbr.alloc_retire_ns", "ns");
    ("vbr.rollbacks_per_kop", "1/kop");
    ("vbr.useful_ratio", "ratio");
    ("vbr.cas_fail_per_kupdate", "1/kupdate");
    ("vbr.epoch_advances_per_kop", "1/kop");
    ("vbr.unreclaimed_end", "count");
    ("dstruct.contains_ns", "ns");
    ("dstruct.insert_ns", "ns");
    ("dstruct.delete_ns", "ns");
    ("dstruct.update_success_ratio", "ratio");
    ("harness.registry_op_ns", "ns");
    ("harness.registry_self_ns", "ns");
    ("harness.opgen_ns", "ns");
    ("harness.loop_self_ns", "ns");
    ("harness.call_span_ns", "ns");
    ("net.codec_ns", "ns");
    ("net.service_p50_ns", "ns");
    ("net.service_p99_ns", "ns");
    ("net.service_mean_ns", "ns");
    ("net.wire_overhead_us", "us");
    ("net.frames_per_read", "count");
    ("net.bytes_per_request", "B");
    ("obs.metrics_record_ns", "ns");
    ("trace.throughput_ratio", "ratio");
  ]

let names ~trace = if trace then per_layer else end_to_end

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * float) list;  (** exactly [names ~trace], in order *)
  notes : (string * string) list;  (** extra human-readable facts *)
}

(* Select and order the run's figures by the metric table. A missing or
   non-finite figure is a broken run, never a silently absent metric. *)
let make ~trace ~attempted ~failed ~failures ~notes figures =
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name figures with
        | Some v when Float.is_finite v -> (name, v)
        | _ ->
            missing := name :: !missing;
            (name, nan))
      (names ~trace)
  in
  let failures =
    failures @ List.rev_map (fun n -> Printf.sprintf "metric %s was not measured" n) !missing
  in
  { correct = failed = 0 && !missing = []; attempted = max 1 attempted; failed; failures; metrics; notes }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_line ~trace r =
  let units = names ~trace in
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let print_table ~trace ~workload r =
  let units = names ~trace in
  Printf.printf "workload %s (%s run)\n" workload (if trace then "traced" else "untraced");
  List.iter
    (fun (name, v) -> Printf.printf "  %-32s %16.6g %s\n" name v (List.assoc name units))
    r.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-32s %s\n" k v) r.notes;
  Printf.printf "  %-32s %d of %d (error_rate %.3g)\n" "failed" r.failed r.attempted
    (float_of_int r.failed /. float_of_int r.attempted);
  List.iter (fun f -> Printf.printf "  failure: %s\n" f) r.failures

let to_json ~trace ~provenance r =
  let open Obs.Sink in
  let units = names ~trace in
  Obj
    [
      ("provenance", Obj (List.map (fun (k, v) -> (k, String v)) provenance));
      ("correct", Bool r.correct);
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("error_rate", Float (float_of_int r.failed /. float_of_int r.attempted));
      ("failures", List (List.map (fun f -> String f) r.failures));
      ( "metrics",
        Obj
          (List.map
             (fun (n, v) ->
               (n, Obj [ ("value", if Float.is_finite v then Float v else Null); ("unit", String (List.assoc n units)) ]))
             r.metrics) );
      ("notes", Obj (List.map (fun (k, v) -> (k, String v)) r.notes));
    ]
