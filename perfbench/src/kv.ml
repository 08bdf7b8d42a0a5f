(* The traced run's served rung: a vbr-kv process (one worker domain)
   driven over loopback by one client connection in a closed loop of
   pipelined batches. One connection to one worker is sequential, so a
   shadow model predicts every response exactly. *)

module P = Net.Protocol

type server = { pid : int; port : int; metrics_port : int; files : string list }

let live : int list ref = ref []

let stop_server s =
  if List.mem s.pid !live then begin
    live := List.filter (fun p -> p <> s.pid) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Mclock.now_ns () + 5_000_000_000 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Mclock.now_ns () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ();
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) s.files
  end

(* No vbr-kv outlives the benchmark, whatever path it exits by. *)
let () =
  at_exit (fun () -> List.iter (fun pid -> stop_server { pid; port = 0; metrics_port = 0; files = [] }) !live)

let read_int_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let v = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      v

let spawned = ref 0

(* How long a vbr-kv start-up (which includes its prefill) may take. *)
let start_limit_s (w : Workloads.t) = Workloads.setup_limit_s w

(* Start vbr-kv for the workload's table and return once it has answered
   a PING on a fresh connection (the set-up time includes the prefill the
   server does before it listens). *)
let spawn ~kv_bin ~out_dir (w : Workloads.t) =
  incr spawned;
  let tag = Printf.sprintf "%s/kv-%d-%d" out_dir (Unix.getpid ()) !spawned in
  let port_file = tag ^ ".port" and mport_file = tag ^ ".mport" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ port_file; mport_file ];
  let log = Unix.openfile (tag ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| kv_bin; "--scheme"; "vbr"; "--workers"; "1"; "--range"; string_of_int w.range;
       "--buckets"; string_of_int w.buckets; "--prefill"; "--port"; "0"; "--port-file"; port_file;
       "--metrics-port"; "0"; "--metrics-port-file"; mport_file |]
  in
  let pid = Unix.create_process kv_bin args Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  let deadline = Mclock.now_ns () + (int_of_float (start_limit_s w) * 1_000_000_000) in
  let rec wait_ports () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (fun p -> p <> pid) !live;
        failwith (Printf.sprintf "vbr-kv exited during start-up (see %s.log)" tag));
    match (read_int_file port_file, read_int_file mport_file) with
    | Some port, Some metrics_port -> { pid; port; metrics_port; files = [ port_file; mport_file; tag ^ ".log" ] }
    | _ ->
        if Mclock.now_ns () > deadline then
          failwith (Printf.sprintf "vbr-kv did not start within %.0f s" (start_limit_s w));
        Unix.sleepf 0.002;
        wait_ports ()
  in
  let s = wait_ports () in
  let client = Net.Client.connect ~host:"127.0.0.1" ~port:s.port in
  (match Net.Client.request client P.Ping with
  | P.Pong -> ()
  | r -> failwith ("vbr-kv answered PING with " ^ P.response_to_string r));
  (s, client)

(* Shadow model of the table: [None] = absent, [Some v] = present with
   payload [v]. The prefilled keys hold the empty payload. *)
let initial_model range =
  Array.init range (fun k -> if Harness.Workload.prefill_member k then Some "" else None)

(* 64-byte PUT payload naming its key and the client's sequence number,
   so a GET that returns another key's or an older write's bytes shows. *)
let payload k seq =
  let s = Printf.sprintf "k=%d;seq=%d;" k seq in
  s ^ String.make (64 - String.length s) '.'

let request_of_op op seq =
  let k = Opstream.key_of op in
  match op land 3 with
  | 0 -> P.Get k
  | 1 -> P.Put (k, payload k seq)
  | _ -> P.Delete k

(* Expected response of [req] against [model], applied in place. *)
let expect model (req : P.request) : P.response =
  match req with
  | P.Get k -> ( match model.(k) with Some v -> P.Value v | None -> P.Not_found)
  | P.Put (k, v) ->
      let created = model.(k) = None in
      model.(k) <- Some v;
      P.Stored created
  | P.Delete k -> (
      match model.(k) with
      | Some _ ->
          model.(k) <- None;
          P.Deleted
      | None -> P.Not_found)
  | P.Stats | P.Ping | P.Stats_full -> P.Pong

(* After a mismatch, take the server's word for the key so that one lost
   write is counted once, not on every later request for that key. *)
let resync model (req : P.request) (got : P.response) =
  match (req, got) with
  | P.Get k, P.Value v -> model.(k) <- Some v
  | (P.Get k | P.Delete k), P.Not_found -> model.(k) <- None
  | P.Delete k, P.Deleted -> model.(k) <- None
  | P.Put (k, v), P.Stored _ -> model.(k) <- Some v
  | _ -> ()

type loop = {
  stream : Opstream.t;
  model : string option array;
  ring : Sample.ring;  (** batch round trips, ns *)
  mutable seq : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable measured : int;  (** validated responses inside the timed window *)
  mutable dead : bool;  (** the connection failed; no further batches *)
}

let loop ~seed ~stream (w : Workloads.t) =
  {
    stream = Opstream.create ~seed ~stream ~range:w.range w.mix;
    model = initial_model w.range;
    ring = Sample.ring (1 lsl 20);
    seq = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    measured = 0;
    dead = false;
  }

let fail l n msg =
  l.failed <- l.failed + n;
  if List.length l.failures < 10 then l.failures <- l.failures @ [ msg ]

(* One pipelined batch: [Workloads.depth] requests, one flush, [depth] responses,
   each checked against the shadow model. *)
let batch l client ~measuring =
  let reqs =
    List.init Workloads.depth (fun _ ->
        l.seq <- l.seq + 1;
        request_of_op (Opstream.next l.stream) l.seq)
  in
  let expected = List.map (expect l.model) reqs in
  let t0 = Mclock.now_ns () in
  match Net.Client.batch client reqs with
  | exception ((Net.Client.Disconnected | Net.Client.Protocol_failure _ | Unix.Unix_error _) as e) ->
      l.attempted <- l.attempted + Workloads.depth;
      fail l Workloads.depth ("connection failed: " ^ Printexc.to_string e);
      l.dead <- true
  | got ->
      let t1 = Mclock.now_ns () in
      l.attempted <- l.attempted + Workloads.depth;
      List.iteri
        (fun i (req, (want, have)) ->
          if want <> have then begin
            fail l 1
              (Printf.sprintf "request %d %s: expected %s, got %s" (l.seq - Workloads.depth + i + 1)
                 (P.request_to_string req) (P.response_to_string want) (P.response_to_string have));
            resync l.model req have
          end)
        (List.combine reqs (List.combine expected got));
      if measuring then begin
        l.measured <- l.measured + Workloads.depth;
        Sample.record l.ring (t1 - t0)
      end

(* [warmup_s] untimed, then [seconds] timed. A watchdog domain kills the
   server when no batch completes for [Workloads.stall_s]; the blocked
   batch then fails and its requests count as failed. Returns the timed
   window's one-second slices. *)
let window l client server ~warmup_s ~seconds =
  l.measured <- 0;
  l.ring.count <- 0;
  let progress = Atomic.make 0 and finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let rec go last since =
          if not (Atomic.get finished) then begin
            Unix.sleepf 0.02;
            let p = Atomic.get progress and now = Mclock.now_ns () in
            if p <> last then go p now
            else if float_of_int (now - since) *. 1e-9 > Workloads.stall_s then
              (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ())
            else go last since
          end
        in
        go 0 (Mclock.now_ns ()))
  in
  let ns s = int_of_float (s *. 1e9) in
  let t1 = Mclock.now_ns () + ns warmup_s in
  let n = max 1 (int_of_float (Float.round seconds)) in
  let boundary i = t1 + ns (seconds *. float_of_int i /. float_of_int n) in
  let slices = ref [] in
  (* [i]: the next slice to close; its start was (ts, ops, count, ticks). *)
  let rec go i ts ops count ticks =
    let now = Mclock.now_ns () in
    if i > n || l.dead then ()
    else if now >= boundary i then begin
      let ticks' = Sample.cpu_ticks () in
      if i > 0 then
        slices :=
          {
            Sample.dt_ns = now - ts;
            ops = l.measured - ops;
            segs = [ (l.ring, count, l.ring.count) ];
            steal_pct = Sample.steal_pct ticks ticks';
          }
          :: !slices;
      go (i + 1) now l.measured l.ring.count ticks'
    end
    else begin
      batch l client ~measuring:(i > 0);
      Atomic.incr progress;
      go i ts ops count ticks
    end
  in
  go 0 t1 0 0 (Sample.cpu_ticks ());
  Atomic.set finished true;
  Domain.join watchdog;
  List.rev !slices

(* What the server says about itself after the window: STATS (request,
   batch and SMR counters) and its /metrics page (byte counters and the
   per-op service-time histograms it records at the worker). *)
type served = {
  stats : (string * int) list;
  fams : Obs.Metrics.pfamily list;
}

let scrape client server =
  let stats =
    match Net.Client.request client P.Stats with
    | P.Stats_reply l -> l
    | r -> failwith ("STATS answered with " ^ P.response_to_string r)
  in
  let fams =
    match Net.Http.get ~host:"127.0.0.1" ~port:server.metrics_port "/metrics" with
    | Error e -> failwith ("GET /metrics: " ^ e)
    | Ok body -> (
        match Obs.Metrics.parse body with Ok f -> f | Error e -> failwith ("/metrics: " ^ e))
  in
  { stats; fams }

let stat s name = Option.value (List.assoc_opt name s.stats) ~default:0

(* Quantile of a server histogram, interpolated linearly inside the
   bucket that holds it. The server's clock ticks in whole microseconds
   and its buckets are 1-2-5 wide, so the bucket bound alone would read
   the same on nearly every run. In ns. *)
let service_quantile s ~op q =
  match Obs.Metrics.find_family s.fams "vbr_net_request_duration_seconds" with
  | None -> nan
  | Some fam ->
      let b = Obs.Metrics.buckets_of fam ~labels:[ ("op", op) ] in
      let total = match List.rev b with (_, c) :: _ -> c | [] -> 0. in
      let target = q *. total in
      let rec go prev_le prev_c = function
        | [] -> nan
        | (le, c) :: rest ->
            if c >= target && c > prev_c then
              if le = infinity then prev_le *. 1e9
              else (prev_le +. ((le -. prev_le) *. (target -. prev_c) /. (c -. prev_c))) *. 1e9
            else go le c rest
      in
      if total <= 0. then nan else go 0. 0. b

(* Mean service time over the given ops, ns: the server's quantised clock
   reads are unbiased on average, so the mean is exact where a quantile
   is not. *)
let service_mean s ~ops =
  let v name op =
    Option.value ~default:0.
      (Obs.Metrics.sample_value s.fams ~labels:[ ("op", op) ] ("vbr_net_request_duration_seconds" ^ name))
  in
  let sum = List.fold_left (fun acc op -> acc +. v "_sum" op) 0. ops in
  let count = List.fold_left (fun acc op -> acc +. v "_count" op) 0. ops in
  if count = 0. then nan else sum /. count *. 1e9

let counter s name =
  Option.value ~default:0. (Obs.Metrics.sample_value s.fams name)
