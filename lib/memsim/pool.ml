type t = {
  arena : Arena.t;
  global : Global_pool.t;
  shard : int;  (* this thread's Global_pool shard *)
  spill : int;
  free : int list array;  (* per level-1 *)
  free_len : int array;
  mutable recycled : int;
  mutable rng : int;  (* xorshift state for the steal probe *)
  stats : Obs.Counters.shard option;
  mutable trace : Obs.Trace.ring option;
}

let max_supported_level = 32

let create ?stats ?(shard = 0) arena global ~spill =
  if spill < 2 then invalid_arg "Pool.create: spill must be >= 2";
  {
    arena;
    global;
    shard;
    spill;
    free = Array.make max_supported_level [];
    free_len = Array.make max_supported_level 0;
    recycled = 0;
    (* Any nonzero per-shard seed works; the golden-ratio multiplier just
       decorrelates neighbouring shards' probe sequences. *)
    rng = ((shard + 1) * 0x9E3779B97F4A7C1) lor 1;
    stats;
    trace = None;
  }

let set_trace t r = t.trace <- Some r

let count t ev =
  match t.stats with None -> () | Some s -> Obs.Counters.shard_incr s ev

let count_n t ev n =
  match t.stats with None -> () | Some s -> Obs.Counters.shard_add s ev n

let probe t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x;
  x land max_int

let rec split_at n acc = function
  | rest when n = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | x :: rest -> split_at (n - 1) (x :: acc) rest

let maybe_spill t lvl =
  if t.free_len.(lvl) > t.spill then begin
    let len = t.free_len.(lvl) in
    let keep = len / 2 in
    let kept, donated = split_at keep [] t.free.(lvl) in
    t.free.(lvl) <- kept;
    t.free_len.(lvl) <- keep;
    (* [free_len] is exact, so the donated length is arithmetic — no
       second traversal of the donated half. *)
    count_n t Obs.Event.Pool_spill (len - keep);
    Global_pool.push_batch ?stats:t.stats ~shard:t.shard t.global
      ~level:(lvl + 1) donated
  end

let put_no_spill t i =
  let node = Arena.get t.arena i in
  (match Arena.sanitizer t.arena with
  | None -> ()
  | Some s -> Sanitizer.note_free s i node);
  let lvl = Node.level node - 1 in
  t.free.(lvl) <- i :: t.free.(lvl);
  t.free_len.(lvl) <- t.free_len.(lvl) + 1;
  lvl

let put t i = maybe_spill t (put_no_spill t i)

(* Land the whole batch first, then spill each touched level at most
   once: re-checking per element made a large batch (a VBR retired-list
   flush) bounce the level across the spill threshold repeatedly. *)
let put_batch t batch =
  let touched = Array.make max_supported_level false in
  List.iter (fun i -> touched.(put_no_spill t i) <- true) batch;
  Array.iteri (fun lvl hit -> if hit then maybe_spill t lvl) touched

(* Clear the free flag before handing a recycled slot out, so a Strict
   sanitizer does not fault the allocator's own Arena.get of it. *)
let note_reuse t i =
  (match Arena.sanitizer t.arena with
  | None -> ()
  | Some s -> Sanitizer.note_reuse s i);
  match t.trace with
  | None -> ()
  | Some r -> Obs.Trace.emit r Obs.Trace.Reuse ~slot:i ~v1:0 ~v2:0 ~epoch:0

let take t ~level =
  let lvl = level - 1 in
  match t.free.(lvl) with
  | i :: rest ->
      t.free.(lvl) <- rest;
      t.free_len.(lvl) <- t.free_len.(lvl) - 1;
      t.recycled <- t.recycled + 1;
      count t Obs.Event.Pool_recycle;
      note_reuse t i;
      i
  | [] -> (
      match
        Global_pool.pop_batch ?stats:t.stats ~shard:t.shard ~probe:(probe t)
          t.global ~level
      with
      | Some (i :: rest) ->
          t.free.(lvl) <- rest;
          t.free_len.(lvl) <- List.length rest;
          t.recycled <- t.recycled + 1;
          count t Obs.Event.Pool_recycle;
          note_reuse t i;
          i
      | Some [] | None -> (
          match Arena.fresh t.arena ~level with
          | i ->
              count t Obs.Event.Arena_fresh;
              i
          | exception Arena.Exhausted ->
              count t Obs.Event.Arena_exhausted;
              raise Arena.Exhausted))

let local_free t = Array.fold_left ( + ) 0 t.free_len
let recycled t = t.recycled
