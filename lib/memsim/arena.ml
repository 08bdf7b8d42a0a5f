type t = {
  capacity : int;
  chunk_bits : int;
  chunk_mask : int;
  chunks : Node.t array Atomic.t array;
  next_fresh : int Atomic.t;
  mutable sanitizer : Sanitizer.t option;
}

exception Exhausted

let chunk_bits = 14 (* 16K nodes per chunk *)
let no_chunk : Node.t array = [||]

let create ~capacity =
  if capacity < 1 || capacity > Packed.max_index then
    invalid_arg (Printf.sprintf "Arena.create: capacity %d out of range" capacity);
  let slots = capacity + 1 (* slot 0 is NULL *) in
  let n_chunks = (slots + (1 lsl chunk_bits) - 1) lsr chunk_bits in
  {
    capacity;
    chunk_bits;
    chunk_mask = (1 lsl chunk_bits) - 1;
    chunks = Array.init n_chunks (fun _ -> Atomic.make no_chunk);
    next_fresh = Atomic.make 1;
    sanitizer = None;
  }

let capacity t = t.capacity

let attach_sanitizer t mode =
  let s = Sanitizer.create mode ~slots:t.capacity in
  t.sanitizer <- Some s;
  s

let sanitizer t = t.sanitizer

(* The dummy padding node shared by all chunk cells until their slot is
   claimed. It is never reachable through any data-structure pointer. *)
let dummy = lazy (Node.make ~level:1)

let ensure_chunk t ci =
  let cell = t.chunks.(ci) in
  let cur = Atomic.get cell in
  if cur != no_chunk then cur
  else begin
    let fresh_chunk = Array.make (1 lsl t.chunk_bits) (Lazy.force dummy) in
    if Atomic.compare_and_set cell no_chunk fresh_chunk then fresh_chunk
    else Atomic.get cell
  end

(* One bump claims the whole range, so its slots are contiguous even
   when other domains claim concurrently; a range may straddle chunks. *)
let fresh_range t ~n ~level =
  if n < 1 then invalid_arg "Arena.fresh_range: n must be >= 1";
  let base = Atomic.fetch_and_add t.next_fresh n in
  if base + n - 1 > t.capacity then raise Exhausted;
  for i = base to base + n - 1 do
    let chunk = ensure_chunk t (i lsr t.chunk_bits) in
    chunk.(i land t.chunk_mask) <- Node.make ~level
  done;
  base

let fresh t ~level = fresh_range t ~n:1 ~level

(* The bump counter advances even on attempts that raise [Exhausted], so
   clamp to the capacity. *)
let allocated t = min (Atomic.get t.next_fresh - 1) t.capacity

(* The two array indexings below run on every single node dereference of
   every scheme, so once the one explicit bounds check has proved
   [1 <= i <= capacity] — which caps both the chunk index and the
   in-chunk offset by construction — the redundant per-array bounds
   checks are skipped. *)
let get t i =
  if i < 1 || i > t.capacity then
    invalid_arg (Printf.sprintf "Arena.get: slot %d out of range" i);
  (match t.sanitizer with None -> () | Some s -> Sanitizer.check_read s i);
  let chunk = Atomic.get (Array.unsafe_get t.chunks (i lsr t.chunk_bits)) in
  if chunk == no_chunk then
    invalid_arg (Printf.sprintf "Arena.get: slot %d not yet allocated" i);
  Array.unsafe_get chunk (i land t.chunk_mask)

(* The optimistic plane's read path: VBR readers dereference freed slots
   legitimately (the epoch check after the read is what rejects the
   value), so a Strict sanitizer must not fault them. Everything else —
   bounds, chunk resolution — is [get]. *)
let get_speculative t i =
  if i < 1 || i > t.capacity then
    invalid_arg (Printf.sprintf "Arena.get: slot %d out of range" i);
  let chunk = Atomic.get (Array.unsafe_get t.chunks (i lsr t.chunk_bits)) in
  if chunk == no_chunk then
    invalid_arg (Printf.sprintf "Arena.get: slot %d not yet allocated" i);
  Array.unsafe_get chunk (i land t.chunk_mask)
