(* One benchmark run: a workload, a seed, a window length and the traced
   flag in; a checked {!Report.t} out.

   An untraced run measures [segments] segments, each in a process of its
   own: a fresh heap, freshly set up, warmed, measured and checked. It
   reports medians over all the segments' quiet one-second slices (see
   {!Sample.quiet}), so the spread between processes (memory layout) and
   bursts of outside load both average out. A traced run, also in a process of its own, measures
   one instance, untraced for half the window and traced for the other
   half, then climbs the single-domain ladder and the served rung.

   Each of these processes has a deadline. One that overruns it (a hang
   the in-process watchdog could not turn into failed ops, such as a
   final check that spins on a corrupted chain) is killed and counted as
   failed, so the run still ends with a result. *)

type config = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  kv_bin : string;
  out_dir : string;
  inject : int;  (** flip this many expected key states; the self-tests set it *)
}

let segments = 8
(* Warm-up before each timed window, for caches and lazily built state. *)
let warmup_s c = Float.min 0.5 (c.seconds *. 0.2)
let per_kop n ops = 1000. *. Sample.ratio n ops
let ev snap e = Obs.Counters.get snap e
let fmt_list l = String.concat " " (List.map (Printf.sprintf "%.4g") l)

(* What one untraced segment reports to the run that spawned it. *)
type segment = {
  stats : Sample.slice_stat list;
  setup_samples : float list;
  table_mb : float;  (** live heap the table holds at the end of the window *)
  rss_growth_mb : float;  (** peak resident set above the process's baseline *)
  ops : int;
  attempted : int;
  failed : int;
  failures : string list;
}

let untraced_report c segs =
  let cat f = List.concat_map f segs in
  let stats = cat (fun g -> g.stats) and setup_samples = cat (fun g -> g.setup_samples) in
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 segs in
  let sm = Sample.summarize stats in
  Report.make ~trace:false ~attempted:(sum (fun g -> g.attempted)) ~failed:(sum (fun g -> g.failed))
    ~failures:(cat (fun g -> g.failures))
    ~notes:
      [
        ("setup_samples_s", fmt_list setup_samples);
        ("segments", string_of_int (List.length segs));
        ("segment_mem_table_mb", fmt_list (List.map (fun g -> g.table_mb) segs));
        ("segment_rss_growth_mb", fmt_list (List.map (fun g -> g.rss_growth_mb) segs));
        ("slices", string_of_int (List.length stats));
        ("slices_kept", string_of_int (List.length (Sample.quiet stats)));
        ("slice_rates_mops", fmt_list (List.map (fun (st : Sample.slice_stat) -> st.rate /. 1e6) stats));
        ("slice_steal_pct", fmt_list (List.map (fun (st : Sample.slice_stat) -> st.steal) stats));
        ("latency_samples", string_of_int sm.n);
        ("latency_p999_us", Printf.sprintf "%.3f" (sm.p999 /. 1000.));
        ("ops_in_windows", string_of_int (sum (fun g -> g.ops)));
        ("warmup_s_per_segment", Printf.sprintf "%g" (warmup_s { c with seconds = c.seconds /. float_of_int segments }));
      ]
    [
      ("throughput_mops", sm.rate /. 1e6);
      ("latency_p50_us", sm.p50 /. 1000.);
      ("latency_p99_us", sm.p99 /. 1000.);
      ("mem_table_mb", Sample.median_float (List.map (fun g -> g.table_mb) segs));
      ("setup_s", Sample.median_float setup_samples);
    ]

(* net.* figures from a served window: the client's batch p50 and the
   server's own counters and service-time histograms. *)
let wire_figures ~batch_p50_us (s : Kv.served) =
  let requests = Kv.stat s "ops_get" + Kv.stat s "ops_put" + Kv.stat s "ops_delete" in
  let mean = Kv.service_mean s ~ops:[ "get"; "put"; "delete" ] in
  [
    ("net.service_p50_ns", Kv.service_quantile s ~op:"get" 0.5);
    ("net.service_p99_ns", Kv.service_quantile s ~op:"get" 0.99);
    ("net.service_mean_ns", mean);
    ("net.wire_overhead_us", batch_p50_us -. (float_of_int Workloads.depth *. mean /. 1000.));
    ("net.frames_per_read", Sample.ratio requests (Kv.stat s "batches"));
    ( "net.bytes_per_request",
      (Kv.counter s "vbr_net_rx_bytes_total" +. Kv.counter s "vbr_net_tx_bytes_total") /. float_of_int requests );
  ]

let window_stats slices = Sample.summarize (List.map Sample.slice_stat slices)

(* The served rung: the workload's own mix and table size through vbr-kv
   for [wire_seconds], so every traced run reaches the wire. *)
let wire_seconds = 1.0

let wire_rung c =
  let w = c.workload in
  let server, client = Kv.spawn ~kv_bin:c.kv_bin ~out_dir:c.out_dir w in
  Fun.protect
    ~finally:(fun () ->
      Net.Client.close client;
      Kv.stop_server server)
    (fun () ->
      let l = Kv.loop ~seed:c.seed ~stream:100 w in
      let sl = Kv.window l client server ~warmup_s:0.2 ~seconds:wire_seconds in
      let s = Kv.scrape client server in
      (wire_figures ~batch_p50_us:((window_stats sl).p50 /. 1000.) s, l))

let ladder c =
  let lad = Ladder.run c.workload ~seed:c.seed in
  let fails =
    if lad.codec_failures > 0 then [ Printf.sprintf "%d codec round trips failed" lad.codec_failures ] else []
  in
  (lad, fails)

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1048576.

(* An untraced segment: [w.setups] timed set-ups, the last one measured
   for [c.seconds] and checked. The baselines are read once the
   benchmark's own buffers and every domain's minor heap are in place, so
   what grows past them is the table's: its live heap after the window
   (nodes, arena chunks, pools, retired lists), and the peak resident set
   that the table, its garbage and the heap's free space reached. *)
let segment c ~segment =
  let w = c.workload in
  let bufs = Inproc.buffers w in
  Inproc.warm_domains ();
  let live0 = live_mb () and rss0 = Sample.status_mb "VmRSS" in
  let extra = List.init (w.setups - 1) (fun _ -> snd (Inproc.build w)) in
  let t = Inproc.setup w ~seed:c.seed ~segment bufs in
  let sl = Inproc.window t ~traced:false ~warmup_s:(warmup_s c) ~seconds:c.seconds in
  let table_mb = live_mb () -. live0 in
  let chk = Inproc.check ~inject:c.inject t in
  {
    stats = List.map Sample.slice_stat sl;
    setup_samples = extra @ [ t.setup_s ];
    table_mb;
    rss_growth_mb = Sample.status_mb "VmHWM" -. rss0;
    ops = Inproc.measured t;
    attempted = chk.attempted;
    failed = chk.failed;
    failures = chk.failures;
  }

let traced c =
  let w = c.workload in
  let t = Inproc.setup w ~seed:c.seed ~segment:0 (Inproc.buffers w) in
  let half = c.seconds /. 2. in
  let sl_u = Inproc.window t ~traced:false ~warmup_s:(warmup_s c) ~seconds:half in
  let thr_u = (window_stats sl_u).rate in
  let s0 = t.inst.stats () in
  let t_trace = Mclock.now_ns () in
  let sl_t = Inproc.window t ~traced:true ~warmup_s:0. ~seconds:half in
  let thr_t = (window_stats sl_t).rate in
  let s1 = t.inst.stats () in
  let ops = Inproc.measured t in
  let d e = ev s1 e - ev s0 e in
  let bufs = Inproc.span_bufs t in
  Spans.write (Printf.sprintf "%s/spans-%s-seed%d.jsonl" c.out_dir w.name c.seed) ~t0:t_trace bufs;
  let chk = Inproc.check ~inject:c.inject t in
  let rollbacks = d Obs.Event.Rollback in
  let figures =
    [
      ("memsim.slots_per_key", Sample.ratio (t.inst.allocated ()) (t.inst.size ()));
      ("memsim.recycle_ratio", Sample.ratio (d Obs.Event.Pool_recycle) (d Obs.Event.Alloc));
      ( "memsim.global_pool_ops_per_kop",
        per_kop (d Obs.Event.Global_push + d Obs.Event.Global_pop + d Obs.Event.Global_steal) ops );
      ("vbr.rollbacks_per_kop", per_kop rollbacks ops);
      ("vbr.useful_ratio", Sample.ratio ops (ops + rollbacks));
      ("vbr.cas_fail_per_kupdate", per_kop (d Obs.Event.Cas_fail) (Inproc.updates t));
      ("vbr.epoch_advances_per_kop", per_kop (d Obs.Event.Epoch_advance) ops);
      ("vbr.unreclaimed_end", float_of_int (t.inst.unreclaimed ()));
      ("dstruct.update_success_ratio", Sample.ratio (Inproc.updates_ok t) (Inproc.updates t));
      ("harness.loop_self_ns", float_of_int (Spans.self_ns bufs ~parent:0 ~children:[ 1; 2; 3 ]) /. float_of_int ops);
      ( "harness.call_span_ns",
        float_of_int (Spans.total bufs 1 + Spans.total bufs 2 + Spans.total bufs 3) /. float_of_int ops );
      ("trace.throughput_ratio", thr_t /. thr_u);
    ]
  in
  let lad, lad_fails = ladder c in
  let wire, wl = wire_rung c in
  Report.make ~trace:true
    ~attempted:(chk.attempted + wl.attempted + lad.codec_requests)
    ~failed:(chk.failed + wl.failed + lad.codec_failures)
    ~failures:(chk.failures @ wl.failures @ lad_fails)
    ~notes:
      [
        ("untraced_throughput_mops", Printf.sprintf "%.4f" (thr_u /. 1e6));
        ("traced_throughput_mops", Printf.sprintf "%.4f" (thr_t /. 1e6));
        ("spans", string_of_int (Spans.count bufs 0 * 2));
      ]
    (figures @ lad.layers @ wire)

(* What runs in a child process, and what it sends back. *)
type job = Segment of int | Traced
type outcome = Segment_done of segment | Traced_done of Report.t

(* Child processes re-run this executable with [--segment-child]; the
   executable calls {!child_entry} before anything else. The child reads
   its config and job marshalled on its standard input and sends its
   outcome back marshalled on its standard output. On SIGTERM it exits
   through [at_exit], which stops any vbr-kv it started. *)
let child_flag = "--segment-child"

let child_entry () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = child_flag then begin
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
    let (c : config), job = Marshal.from_channel stdin in
    let out = match job with Segment s -> Segment_done (segment c ~segment:s) | Traced -> Traced_done (traced c) in
    Marshal.to_channel stdout (out : outcome) [];
    exit 0
  end

(* Time the single-domain ladder may take, beyond its two set-ups. *)
let ladder_limit_s = 30.

(* Slack for process start, the final check and exit. *)
let margin_s = 15.

(* How long a child may run: every phase at its limit, plus the margin. *)
let deadline_s c job =
  let w = c.workload in
  let setup = Workloads.setup_limit_s w and watchdog = Workloads.stall_s in
  match job with
  | Segment _ -> c.seconds +. warmup_s c +. (float_of_int w.setups *. setup) +. watchdog +. margin_s
  | Traced ->
      let wire = setup +. 0.2 +. wire_seconds +. watchdog in
      c.seconds +. warmup_s c +. watchdog +. (3. *. setup) +. ladder_limit_s +. wire +. margin_s

(* Read [fd] to end of file, or until [deadline] (ns); None on overrun. *)
let read_until fd ~deadline =
  let buf = Buffer.create 65_536 and chunk = Bytes.create 65_536 in
  let rec go () =
    let left = float_of_int (deadline - Mclock.now_ns ()) *. 1e-9 in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents buf)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* Stop an overrunning child: SIGTERM, so that it stops its servers, then
   SIGKILL if it has not ended within 8 s. *)
let kill_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Mclock.now_ns () + 8_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Mclock.now_ns () < deadline ->
        Unix.sleepf 0.05;
        reap ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

(* Run [job] in a child process. [Error reason] when the child overran its
   deadline, died or sent nothing. *)
let in_child c job =
  let limit = deadline_s c job in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name [| Sys.executable_name; child_flag |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  Marshal.to_channel oc (c, job) [];
  close_out oc;
  let data = read_until out_r ~deadline:(Mclock.now_ns () + int_of_float (limit *. 1e9)) in
  Unix.close out_r;
  match data with
  | None ->
      kill_child pid;
      Error (Printf.sprintf "overran its %.0f s deadline and was killed" limit)
  | Some data -> (
      let _, status = Unix.waitpid [] pid in
      match status with
      | Unix.WEXITED 0 -> (
          try Ok (Marshal.from_string data 0 : outcome)
          with Failure _ | Invalid_argument _ -> Error "sent a malformed result")
      | Unix.WEXITED n -> Error (Printf.sprintf "exited with code %d" n)
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "was stopped by signal %d" n))

let lost_segment segment reason =
  {
    stats = [];
    setup_samples = [];
    table_mb = nan;
    rss_growth_mb = nan;
    ops = 0;
    attempted = 1;
    failed = 1;
    failures = [ Printf.sprintf "segment %d: its process %s" segment reason ];
  }

(* The segments run one after another. After one is lost, the rest are
   skipped: the run has failed already, and this keeps it within its
   time. *)
let run_segments c =
  let c = { c with seconds = c.seconds /. float_of_int segments } in
  let rec go segment acc =
    if segment = segments then List.rev acc
    else
      let c = { c with inject = (if segment = 0 then c.inject else 0) } in
      match in_child c (Segment segment) with
      | Ok (Segment_done g) -> go (segment + 1) (g :: acc)
      | Ok (Traced_done _) -> List.rev (lost_segment segment "sent the wrong result" :: acc)
      | Error reason -> List.rev (lost_segment segment reason :: acc)
  in
  go 0 []

let run_traced c =
  let lost reason =
    Report.make ~trace:true ~attempted:1 ~failed:1 ~failures:[ "traced run: its process " ^ reason ] ~notes:[] []
  in
  match in_child c Traced with
  | Ok (Traced_done r) -> r
  | Ok (Segment_done _) -> lost "sent the wrong result"
  | Error reason -> lost reason

let run c =
  let ticks0 = Sample.cpu_ticks () in
  let r = if c.trace then run_traced c else untraced_report c (run_segments c) in
  let steal = Sample.steal_pct ticks0 (Sample.cpu_ticks ()) in
  { r with notes = r.notes @ [ ("host_steal_pct", Printf.sprintf "%.2f" steal) ] }
