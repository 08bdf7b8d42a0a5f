(* The per-layer ladder: a prefix of the run's own seeded op stream
   replayed on one domain, rung by rung, each rung on an identically
   prefilled instance — arena walk (memsim), validated walk (vbr),
   structure op (dstruct), Registry closure (harness), and the wire codec
   (net) — plus the fixed per-call costs of the primitives in between.
   Every figure is in ns per call unless its name says otherwise. *)

module Vbr = Vbr_core.Vbr

type structure = Hash of Dstruct.Vbr_hash.t | List of Dstruct.Vbr_list.t

type direct = { v : Vbr.t; arena : Memsim.Arena.t; s : structure }

(* Time [f] in blocks of [block] calls until [min_s] has passed; ns per
   call. *)
let per_call ?(min_s = 0.2) ~block f =
  let t0 = Mclock.now_ns () in
  let rec go calls =
    for _ = 1 to block do
      f ()
    done;
    let calls = calls + block in
    let dt = Mclock.now_ns () - t0 in
    if float_of_int dt *. 1e-9 < min_s then go calls else float_of_int dt /. float_of_int calls
  in
  go 0

let direct_op d code k =
  match (d.s, code) with
  | Hash h, 0 -> Dstruct.Vbr_hash.contains h ~tid:0 k
  | Hash h, 1 -> Dstruct.Vbr_hash.insert h ~tid:0 k
  | Hash h, _ -> Dstruct.Vbr_hash.delete h ~tid:0 k
  | List l, 0 -> Dstruct.Vbr_list.contains l ~tid:0 k
  | List l, 1 -> Dstruct.Vbr_list.insert l ~tid:0 k
  | List l, _ -> Dstruct.Vbr_list.delete l ~tid:0 k

(* hash/VBR or list/VBR built straight on Dstruct over a private VBR
   instance with the Registry's VBR defaults. Returns the instance and
   the heap bytes it holds per arena slot. *)
let build_direct (w : Workloads.t) =
  Gc.full_major ();
  let live0 = (Gc.stat ()).live_words in
  let arena = Memsim.Arena.create ~capacity:(Workloads.capacity w) in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let v = Vbr.create ~arena ~global ~n_threads:1 ~hazards:3 ~retire_threshold:64 ~epoch_freq:32 in
  let s =
    if w.structure = "hash" then Hash (Dstruct.Vbr_hash.create v ~buckets:w.buckets)
    else List (Dstruct.Vbr_list.create v)
  in
  let d = { v; arena; s } in
  Inproc.prefill (fun k -> direct_op d 1 k) ~range:w.range;
  Gc.full_major ();
  let bytes = (Gc.stat ()).live_words - live0 in
  (d, float_of_int (bytes * (Sys.word_size / 8)) /. float_of_int (Memsim.Arena.allocated arena))

(* Every chain head: the sentinels whose key is the minimum bound (one per
   hash bucket, one for the list). *)
let heads d =
  let acc = ref [] in
  for i = Memsim.Arena.allocated d.arena downto 1 do
    if (Memsim.Arena.get d.arena i).Memsim.Node.key = Dstruct.Set_intf.min_key_bound then acc := i :: !acc
  done;
  Array.of_list !acc

(* ns per hop of whole-structure walks, repeated for at least [min_s]. *)
let walk_ns ?(min_s = 0.3) heads walk_chain =
  let t0 = Mclock.now_ns () in
  let rec go hops =
    let hops = Array.fold_left (fun acc h -> acc + walk_chain h) hops heads in
    let dt = Mclock.now_ns () - t0 in
    if float_of_int dt *. 1e-9 < min_s then go hops else float_of_int dt /. float_of_int hops
  in
  go 0

let memsim_chain arena head =
  let rec go i hops =
    if i = 0 then hops
    else go (Memsim.Packed.index (Atomic.get (Memsim.Node.next0 (Memsim.Arena.get arena i)))) (hops + 1)
  in
  go head 0

let vbr_chain c head =
  Vbr.checkpoint c (fun () ->
      let rec go i hops = if i = 0 then hops else go (fst (Vbr.get_next c i)) (hops + 1) in
      go head 0)

(* Replay [ops], one clock pair per op; mean ns per op kind (clock cost
   subtracted), indexed by op code. *)
let replay ~overhead ops apply =
  let sum = Array.make 3 0 and cnt = Array.make 3 0 in
  Array.iter
    (fun op ->
      let code = op land 3 in
      let t0 = Mclock.now_ns () in
      ignore (apply code (Opstream.key_of op));
      let dt = Mclock.now_ns () - t0 in
      sum.(code) <- sum.(code) + dt;
      cnt.(code) <- cnt.(code) + 1)
    ops;
  let mean code = if cnt.(code) = 0 then nan else (float_of_int sum.(code) /. float_of_int cnt.(code)) -. overhead in
  let all = (float_of_int (Array.fold_left ( + ) 0 sum) /. float_of_int (Array.length ops)) -. overhead in
  (Array.init 3 mean, all)

(* One VBR alloc -> commit_alloc -> retire cycle on a private instance. *)
let alloc_retire_ns () =
  let arena = Memsim.Arena.create ~capacity:100_000 in
  let global = Memsim.Global_pool.create ~max_level:1 in
  let v = Vbr.create ~arena ~global ~n_threads:1 ~hazards:3 ~retire_threshold:64 ~epoch_freq:32 in
  let c = Vbr.ctx v ~tid:0 in
  per_call ~block:10_000 (fun () ->
      Vbr.checkpoint c (fun () ->
          let ((i, _) as n) = Vbr.alloc v ~tid:0 ~level:1 ~key:1 in
          Vbr.commit_alloc c i;
          Vbr.retire v ~tid:0 n))

(* An Obs.Metrics counter increment plus histogram observation on a
   private registry: what vbr-kv records per request. *)
let metrics_record_ns () =
  let reg = Obs.Metrics.create () in
  let ctr = Obs.Metrics.counter reg ~cells:1 "bench_requests" in
  let h = Obs.Metrics.histogram reg ~cells:1 ~scale:1e-9 "bench_duration_seconds" in
  let x = ref 0 in
  per_call ~block:10_000 (fun () ->
      incr x;
      Obs.Metrics.incr ctr ~cell:0;
      Obs.Metrics.observe h ~cell:0 (500 + (!x land 1023)))

(* The op prefix as kv requests through the whole codec: encode the
   request, frame and decode it as the server does, encode the shadow
   model's response, frame and decode it as the client does. Returns ns
   per request and the number of requests that did not round-trip. *)
let codec (w : Workloads.t) ops =
  let module P = Net.Protocol in
  let model = Kv.initial_model w.range in
  let reqs = Array.mapi (fun i op -> Kv.request_of_op op (i + 1)) ops in
  let resps = Array.map (Kv.expect model) reqs in
  let buf = Buffer.create 256 and bytes = Bytes.create 65_536 in
  let bad = ref 0 in
  let through encode decode x =
    Buffer.clear buf;
    encode buf x;
    let len = Buffer.length buf in
    Buffer.blit buf 0 bytes 0 len;
    match P.frame_peek bytes ~pos:0 ~avail:len with
    | `Frame (pos, blen, _) -> ( match decode bytes ~pos ~len:blen with Ok y -> y = x | Error _ -> false)
    | `Need_more | `Bad _ -> false
  in
  let n = Array.length reqs in
  let t0 = Mclock.now_ns () in
  for i = 0 to n - 1 do
    if not (through P.encode_request P.decode_request reqs.(i)) then incr bad;
    if not (through P.encode_response P.decode_response resps.(i)) then incr bad
  done;
  (float_of_int (Mclock.now_ns () - t0) /. float_of_int n, !bad)

type result = {
  layers : (string * float) list;
  codec_failures : int;
  codec_requests : int;
  global_pool_ops : int;  (** Global_push + Global_pop + Global_steal during the dstruct replay *)
}

let global_pool_ops snap =
  List.fold_left
    (fun acc e -> acc + Obs.Counters.get snap e)
    0 [ Obs.Event.Global_push; Obs.Event.Global_pop; Obs.Event.Global_steal ]

let ladder_rounds = 3

let run (w : Workloads.t) ~seed =
  let overhead = float_of_int (Mclock.pair_overhead_ns ()) in
  let ops = Opstream.prefix ~seed ~stream:0 ~range:w.range w.mix w.ladder_ops in
  (* harness: op generation alone, then the Registry closures. *)
  let opgen_ns =
    let s = Opstream.create ~seed ~stream:0 ~range:w.range w.mix in
    let acc = ref 0 in
    let t0 = Mclock.now_ns () in
    for _ = 1 to w.ladder_ops do
      acc := !acc lxor Opstream.next s
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int (Mclock.now_ns () - t0) /. float_of_int w.ladder_ops
  in
  (* The Registry and dstruct rungs replay the prefix in rounds on two
     identically prefilled instances. Sequential replay of
     one op list keeps both sets equal after every round, so the rounds
     are comparable; each figure is the median over rounds. *)
  let inst = Inproc.make_instance w ~n_threads:1 in
  Inproc.prefill (fun k -> inst.Harness.Registry.insert ~tid:0 k) ~range:w.range;
  let d, heap_bytes_per_slot = build_direct w in
  let g0 = global_pool_ops (Vbr.stats d.v) in
  let rounds =
    List.init ladder_rounds (fun r ->
        let registry () = snd (replay ~overhead ops (fun code k -> Inproc.apply inst ~tid:0 code k)) in
        let direct () = replay ~overhead ops (direct_op d) in
        (* Alternate which rung goes first, so neither always runs on the
           caches the other warmed. *)
        if r mod 2 = 0 then
          let reg = registry () in
          let per_kind, all = direct () in
          (reg, per_kind, all)
        else
          let per_kind, all = direct () in
          (registry (), per_kind, all))
  in
  let g1 = global_pool_ops (Vbr.stats d.v) in
  let med f = Sample.median_float (List.map f rounds) in
  let registry_op_ns = med (fun (r, _, _) -> r) in
  let direct_all = med (fun (_, _, a) -> a) in
  let per_kind = Array.init 3 (fun i -> med (fun (_, k, _) -> k.(i))) in
  let hs = heads d in
  let hop_ns = walk_ns hs (memsim_chain d.arena) in
  let c = Vbr.ctx d.v ~tid:0 in
  let get_next_ns = walk_ns hs (vbr_chain c) in
  let checkpoint_ns = per_call ~block:100_000 (fun () -> Vbr.checkpoint c (fun () -> ())) in
  let codec_ns, codec_failures = codec w ops in
  {
    layers =
      [
        ("memsim.hop_ns", hop_ns);
        ("memsim.heap_bytes_per_slot", heap_bytes_per_slot);
        ("vbr.get_next_ns", get_next_ns);
        ("vbr.checkpoint_ns", checkpoint_ns);
        ("vbr.alloc_retire_ns", alloc_retire_ns ());
        ("dstruct.contains_ns", per_kind.(0));
        ("dstruct.insert_ns", per_kind.(1));
        ("dstruct.delete_ns", per_kind.(2));
        ("harness.registry_op_ns", registry_op_ns);
        ("harness.registry_self_ns", registry_op_ns -. direct_all);
        ("harness.opgen_ns", opgen_ns);
        ("net.codec_ns", codec_ns);
        ("obs.metrics_record_ns", metrics_record_ns ());
      ];
    codec_failures;
    codec_requests = 2 * Array.length ops;
    global_pool_ops = (g1 - g0) / ladder_rounds;
  }
