(* Nanosecond monotonic time for every measurement the benchmark makes.
   [Obs.Clock.now_ns] steps in whole microseconds, which is coarser than a
   hash-read operation, so the benchmark reads CLOCK_MONOTONIC directly. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Cost of one back-to-back pair of clock reads: subtracted from per-call
   timings in the single-domain ladder. *)
let pair_overhead_ns () =
  let n = 20_001 in
  let d = Array.make n 0 in
  for i = 0 to n - 1 do
    let t0 = now_ns () in
    d.(i) <- now_ns () - t0
  done;
  Array.sort compare d;
  d.(n / 2)
