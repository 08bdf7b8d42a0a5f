(* The in-process workloads: a Registry instance driven by
   [Workloads.domains] worker domains in a closed loop, every op's outcome folded into a
   per-key net count, and a membership check of every key at the end. *)

type dstate = {
  tid : int;
  stream : Opstream.t;
  net : int array;  (** per key: successful inserts - successful deletes *)
  ring : Sample.ring;
  mutable attempted : int;
  mutable raised : int;
  mutable uncertain : int list;  (** keys an op raised on: state unknown *)
  mutable measured : int;  (** ops started inside the timed window *)
  mutable updates : int;
  mutable updates_ok : int;
  spans : Spans.buf;
}

type t = {
  w : Workloads.t;
  inst : Harness.Registry.instance;
  setup_s : float;
  doms : dstate array;
  mutable hung : int list;  (** tids whose domain stopped making progress *)
  progress : int array;  (** per tid at [16 * tid]: ops completed; [+1]: in-flight key *)
}

let span_names = [| "harness.op"; "registry.contains"; "registry.insert"; "registry.delete" |]
let span_capacity = 20_000
let ring_capacity = 1 lsl 21

(* Every op is timed; one in [sample_every] latencies is kept. *)
let sample_every = 4
let scheme = "VBR"

let make_instance (w : Workloads.t) ~n_threads =
  Harness.Registry.make ~structure:w.structure ~scheme ~n_threads ~range:w.range
    ~capacity:(Workloads.capacity w) ~buckets:w.buckets ()

let prefill insert ~range =
  for k = 0 to range - 1 do
    if Harness.Workload.prefill_member k then ignore (insert k)
  done

(* Build + prefill one instance, timed: the set-up [setup_s] measures. *)
let build (w : Workloads.t) =
  Gc.full_major ();
  let t0 = Mclock.now_ns () in
  let inst = make_instance w ~n_threads:(Workloads.domains + 1) (* the last tid is the checker's *) in
  prefill (fun k -> inst.Harness.Registry.insert ~tid:0 k) ~range:w.range;
  (inst, Mclock.since_s t0)

(* Per-domain latency rings, net-count arrays and span buffers, allocated
   before the table is built, so that the benchmark's own buffers are not
   counted as the table's memory. *)
type buffers = { rings : Sample.ring array; nets : int array array; spans : Spans.buf array }

let buffers (w : Workloads.t) =
  {
    rings = Array.init Workloads.domains (fun _ -> Sample.ring ring_capacity);
    nets = Array.init Workloads.domains (fun _ -> Array.make w.range 0);
    spans = Array.init Workloads.domains (fun _ -> Spans.create ~names:span_names ~capacity:span_capacity);
  }

(* Allocate enough on this domain, and on [Workloads.domains] short-lived
   ones, to touch all of their minor heaps. The runtime keeps a domain's
   minor heap resident after the domain ends and hands it to the next
   domain spawned, so once this has run, the minor heaps of this domain
   and of later windows' worker domains add nothing to the resident set
   that is not the table's. *)
let warm_domains () =
  let churn () =
    let r = ref [] in
    for i = 1 to 1_000_000 do
      r := [ i ];
      ignore (Sys.opaque_identity !r)
    done
  in
  churn ();
  List.iter Domain.join (List.init Workloads.domains (fun _ -> Domain.spawn churn))

(* A measured instance. Segment [segment] of a run draws op streams
   [16 * segment + tid], so every segment runs different seeded ops. *)
let setup (w : Workloads.t) ~seed ~segment bufs =
  let inst, setup_s = build w in
  let doms =
    Array.init Workloads.domains (fun tid ->
        Array.fill bufs.nets.(tid) 0 w.range 0;
        bufs.rings.(tid).count <- 0;
        {
          tid;
          stream = Opstream.create ~seed ~stream:((16 * segment) + tid) ~range:w.range w.mix;
          net = bufs.nets.(tid);
          ring = bufs.rings.(tid);
          attempted = 0;
          raised = 0;
          uncertain = [];
          measured = 0;
          updates = 0;
          updates_ok = 0;
          spans = bufs.spans.(tid);
        })
  in
  { w; inst; setup_s; doms; hung = []; progress = Array.make (16 * (Workloads.domains + 1)) 0 }

let apply (inst : Harness.Registry.instance) ~tid code k =
  match code with
  | 0 -> inst.contains ~tid k
  | 1 -> inst.insert ~tid k
  | _ -> inst.delete ~tid k

(* Fold one op's outcome into the domain's state. [ok] is the op's
   result as 1 (true) or 0 (false), or -1 when it raised: an immediate,
   so the hot loop allocates nothing. *)
let account s ~measuring code k ok =
  s.attempted <- s.attempted + 1;
  if ok < 0 then begin
    s.raised <- s.raised + 1;
    s.uncertain <- k :: s.uncertain
  end
  else if ok = 1 && code = 1 then s.net.(k) <- s.net.(k) + 1
  else if ok = 1 && code = 2 then s.net.(k) <- s.net.(k) - 1;
  if measuring && code <> 0 then begin
    s.updates <- s.updates + 1;
    if ok = 1 then s.updates_ok <- s.updates_ok + 1
  end

(* Phases: 0 warm-up, 1 timed window, 2 stop. *)
let worker t ~phase ~traced s =
  let inst = t.inst and tid = s.tid and slot = 16 * s.tid in
  let rec loop () =
    let ph = Atomic.get phase in
    if ph < 2 then begin
      let h0 = if traced then Mclock.now_ns () else 0 in
      let op = Opstream.next s.stream in
      let code = op land 3 and k = Opstream.key_of op in
      t.progress.(slot + 1) <- k;
      let t0 = Mclock.now_ns () in
      let ok = match apply inst ~tid code k with true -> 1 | false -> 0 | exception _ -> -1 in
      let t1 = Mclock.now_ns () in
      let measuring = ph = 1 in
      account s ~measuring code k ok;
      if measuring then begin
        s.measured <- s.measured + 1;
        if s.measured land (sample_every - 1) = 0 then Sample.record s.ring (t1 - t0);
        if traced then begin
          let id = s.attempted in
          Spans.record s.spans ~name:(1 + code) ~parent:0 ~op:id ~start:t0 ~stop:t1;
          Spans.record s.spans ~name:0 ~parent:(-1) ~op:id ~start:h0 ~stop:(Mclock.now_ns ())
        end
      end;
      t.progress.(slot) <- t.progress.(slot) + 1;
      loop ()
    end
  in
  loop ()

(* Run one closed-loop window: [warmup_s] untimed, then [seconds] timed.
   A domain whose op counter stands still for [Workloads.stall_s] is
   declared hung: the run stops, the hung domain is abandoned (never
   joined) and its in-flight op is counted as failed. Returns the timed
   window's one-second slices. Domains count [measured] racily; a slice
   boundary is read from the main domain, so a slice may be off by an op
   or two. *)
let window t ~traced ~warmup_s ~seconds =
  Array.iter
    (fun s ->
      s.measured <- 0;
      s.updates <- 0;
      s.updates_ok <- 0;
      s.ring.count <- 0)
    t.doms;
  let phase = Atomic.make 0 in
  let finished = Array.map (fun _ -> Atomic.make false) t.doms in
  let live = Array.of_list (List.filter (fun s -> not (List.mem s.tid t.hung)) (Array.to_list t.doms)) in
  let handles =
    Array.map
      (fun s ->
        Domain.spawn (fun () ->
            worker t ~phase ~traced s;
            Atomic.set finished.(s.tid) true))
      live
  in
  let last = Array.map (fun s -> t.progress.(16 * s.tid)) t.doms in
  let last_change = Array.make (Array.length t.doms) (Mclock.now_ns ()) in
  (* Poll until [deadline] (or until every live domain finished when
     [until_done]); false as soon as a domain stalls. *)
  let watch ~deadline ~until_done =
    let rec go () =
      let now = Mclock.now_ns () in
      let stalled = ref false and all_done = ref true in
      Array.iter
        (fun s ->
          if not (Atomic.get finished.(s.tid)) then begin
            all_done := false;
            let p = t.progress.(16 * s.tid) in
            if p <> last.(s.tid) then begin
              last.(s.tid) <- p;
              last_change.(s.tid) <- now
            end
            else if float_of_int (now - last_change.(s.tid)) *. 1e-9 > Workloads.stall_s then begin
              stalled := true;
              if not (List.mem s.tid t.hung) then t.hung <- s.tid :: t.hung
            end
          end)
        live;
      if !stalled then false
      else if until_done && !all_done then true
      else if now >= deadline then true
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    in
    go ()
  in
  let ns s = int_of_float (s *. 1e9) in
  let ok = watch ~deadline:(Mclock.now_ns () + ns warmup_s) ~until_done:false in
  let mark () =
    ( Mclock.now_ns (),
      Array.fold_left (fun acc s -> acc + s.measured) 0 t.doms,
      Array.map (fun s -> s.ring.count) t.doms,
      Sample.cpu_ticks () )
  in
  let ticks1 = Sample.cpu_ticks () in
  let t1 = Mclock.now_ns () in
  Atomic.set phase 1;
  let n = max 1 (int_of_float (Float.round seconds)) in
  let rec slices i ok prev acc =
    if i = n || not ok then (ok, List.rev acc)
    else begin
      let ok = watch ~deadline:(t1 + ns (seconds *. float_of_int (i + 1) /. float_of_int n)) ~until_done:false in
      let ((tn, ops, counts, ticks) as now) = mark () in
      let pt, pops, pcounts, pticks = prev in
      let sl =
        {
          Sample.dt_ns = tn - pt;
          ops = ops - pops;
          segs = Array.to_list (Array.mapi (fun d s -> (s.ring, pcounts.(d), counts.(d))) t.doms);
          steal_pct = Sample.steal_pct pticks ticks;
        }
      in
      slices (i + 1) ok now (sl :: acc)
    end
  in
  let ok, sl = slices 0 ok (t1, 0, Array.make (Array.length t.doms) 0, ticks1) [] in
  Atomic.set phase 2;
  ignore (ok && watch ~deadline:max_int ~until_done:true);
  Array.iteri (fun i s -> if Atomic.get finished.(s.tid) then Domain.join handles.(i)) live;
  sl

type check = { attempted : int; failed : int; failures : string list }

(* Every key's membership must equal prefill + the domains' net count.
   Mismatched keys, ops that raised and ops a hung domain never finished
   all count as failed. [inject] flips the expected state of that many
   keys first: the self-test's proof that a wrong state is caught. *)
let check ?(inject = 0) t =
  let range = t.w.range in
  let expected =
    Array.init range (fun k ->
        Array.fold_left (fun acc s -> acc + s.net.(k)) (if Harness.Workload.prefill_member k then 1 else 0) t.doms)
  in
  let skip = Hashtbl.create 16 in
  Array.iter (fun s -> List.iter (fun k -> Hashtbl.replace skip k ()) s.uncertain) t.doms;
  List.iter (fun tid -> Hashtbl.replace skip t.progress.((16 * tid) + 1) ()) t.hung;
  let flipped = ref 0 in
  for k = 0 to range - 1 do
    if !flipped < inject && (not (Hashtbl.mem skip k)) && (expected.(k) = 0 || expected.(k) = 1)
    then begin
      expected.(k) <- 1 - expected.(k);
      incr flipped
    end
  done;
  let checker = Workloads.domains in
  let failed = ref 0 and failures = ref [] in
  let fail msg =
    incr failed;
    if List.length !failures < 10 then failures := msg :: !failures
  in
  for k = 0 to range - 1 do
    if not (Hashtbl.mem skip k) then begin
      let e = expected.(k) in
      let present =
        match t.inst.Harness.Registry.contains ~tid:checker k with b -> Some b | exception _ -> None
      in
      match present with
      | None -> fail (Printf.sprintf "key %d: contains raised in the final check" k)
      | Some p ->
          if e <> 0 && e <> 1 then
            fail (Printf.sprintf "key %d: net successful inserts-deletes %d (must be 0 or 1)" k e)
          else if p <> (e = 1) then
            fail
              (Printf.sprintf "key %d: expected %s, found %s" k
                 (if e = 1 then "present" else "absent")
                 (if p then "present" else "absent"))
    end
  done;
  let attempted = Array.fold_left (fun acc (s : dstate) -> acc + s.attempted) 0 t.doms in
  let raised = Array.fold_left (fun acc s -> acc + s.raised) 0 t.doms in
  let hung = List.length t.hung in
  if raised > 0 then failures := Printf.sprintf "%d ops raised" raised :: !failures;
  if hung > 0 then failures := Printf.sprintf "%d domain(s) stopped making progress" hung :: !failures;
  { attempted = attempted + hung; failed = !failed + raised + hung; failures = List.rev !failures }

let measured t = Array.fold_left (fun acc s -> acc + s.measured) 0 t.doms
let updates t = Array.fold_left (fun acc s -> acc + s.updates) 0 t.doms
let updates_ok t = Array.fold_left (fun acc s -> acc + s.updates_ok) 0 t.doms
let span_bufs t = Array.to_list (Array.map (fun (s : dstate) -> s.spans) t.doms)
