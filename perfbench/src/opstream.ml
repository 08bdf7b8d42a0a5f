(* Seeded operation streams. A stream is a pure function of (seed, stream
   number): the same seed replays the same operations, which is what lets
   the ladder time the run's own op prefix at every layer. Keys are
   uniform; the op pick and the key draw both come from one
   [Harness.Rng] through [Harness.Keygen], the harness's own sampler. *)

type mix = { contains_pct : int; insert_pct : int; delete_pct : int }

type t = { rng : Harness.Rng.t; keys : Harness.Keygen.t; mix : mix }

(* splitmix64 finalizer on OCaml ints: decorrelates per-stream seeds. *)
let mix_seed seed stream =
  let z = (seed * 0x1E3779B97F4A7C15) + ((stream + 1) * 0x27D4EB2F165667C5) in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14057B7EF767814F in
  (z lxor (z lsr 31)) land max_int

let create ~seed ~stream ~range mix =
  if mix.contains_pct + mix.insert_pct + mix.delete_pct <> 100 then
    invalid_arg "Opstream.create: mix does not sum to 100";
  {
    rng = Harness.Rng.create ~seed:(mix_seed seed stream);
    keys = Harness.Keygen.create Harness.Keygen.Uniform ~range;
    mix;
  }

(* An op is one immediate int, so the loops allocate nothing per op:
   [key lsl 2 lor code], where code 0 is contains, 1 insert, 2 delete. *)
let key_of op = op lsr 2

let next t =
  let r = Harness.Rng.below t.rng 100 in
  let k = Harness.Keygen.next t.keys t.rng in
  let code =
    if r < t.mix.contains_pct then 0
    else if r < t.mix.contains_pct + t.mix.insert_pct then 1
    else 2
  in
  (k lsl 2) lor code

let prefix ~seed ~stream ~range mix n =
  let s = create ~seed ~stream ~range mix in
  Array.init n (fun _ -> next s)
