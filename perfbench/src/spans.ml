(* In-memory span recording for the traced run. Spans are recorded only in
   the benchmark's own code, around each call into a layer; each has a
   name, start, end, parent and op id. A per-domain buffer keeps the first
   [capacity] spans for the trace file and sums every span's duration for
   the self-time figures, so the hot path never allocates. *)

type buf = {
  names : string array;  (** span name table, indexed by [name] below *)
  data : int array;  (** 5 ints per span: name, parent name (-1 = root), op id, start, end *)
  mutable len : int;
  sums : int array;  (** total duration per name, all spans *)
  counts : int array;  (** spans per name *)
}

let create ~names ~capacity =
  let n = Array.length names in
  { names; data = Array.make (5 * capacity) 0; len = 0; sums = Array.make n 0; counts = Array.make n 0 }

let record b ~name ~parent ~op ~start ~stop =
  b.sums.(name) <- b.sums.(name) + (stop - start);
  b.counts.(name) <- b.counts.(name) + 1;
  if 5 * (b.len + 1) <= Array.length b.data then begin
    let i = 5 * b.len in
    b.data.(i) <- name;
    b.data.(i + 1) <- parent;
    b.data.(i + 2) <- op;
    b.data.(i + 3) <- start;
    b.data.(i + 4) <- stop;
    b.len <- b.len + 1
  end

let total bufs name = List.fold_left (fun acc b -> acc + b.sums.(name)) 0 bufs
let count bufs name = List.fold_left (fun acc b -> acc + b.counts.(name)) 0 bufs

(* A layer's self time: its spans' total minus the child spans they
   cover (children never outlive their parent here). *)
let self_ns bufs ~parent ~children =
  total bufs parent - List.fold_left (fun acc c -> acc + total bufs c) 0 children

(* JSON lines, one span per line, timestamps relative to [t0]. *)
let write path ~t0 bufs =
  let oc = open_out path in
  List.iteri
    (fun dom b ->
      for s = 0 to b.len - 1 do
        let i = 5 * s in
        let parent = b.data.(i + 1) in
        Printf.fprintf oc
          "{\"domain\":%d,\"name\":%S,\"parent\":%s,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
          dom b.names.(b.data.(i))
          (if parent < 0 then "null" else Printf.sprintf "%S" b.names.(parent))
          b.data.(i + 2) (b.data.(i + 3) - t0) (b.data.(i + 4) - t0)
      done)
    bufs;
  close_out oc
