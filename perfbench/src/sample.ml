(* Order statistics, counts and process facts for the report. *)

(* [qs]-quantiles (each 0 <= q <= 1) of the first [n] values of [a], by
   sorting a copy: exact, and every digit of the samples survives into
   the report. *)
let quantiles a n qs =
  if n = 0 then List.map (fun _ -> nan) qs
  else begin
    let s = Array.sub a 0 n in
    Array.sort compare s;
    List.map
      (fun q -> float_of_int s.(min (n - 1) (int_of_float (q *. float_of_int n))))
      qs
  end

let median_float l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Latency samples: one ring per recording domain. When a run outlasts
   the ring the oldest samples are overwritten; slices whose samples were
   overwritten are left out of the latency medians. *)
type ring = { buf : int array; mutable count : int }

let ring capacity = { buf = Array.make capacity 0; count = 0 }

let record r v =
  let n = Array.length r.buf in
  r.buf.(r.count mod n) <- v;
  r.count <- r.count + 1

(* The timed window is cut into slices of about a second. Each end-to-end
   figure is the median over slices, so a burst of interference from
   outside the benchmark moves one slice, not the run's figure. *)
type slice = {
  dt_ns : int;
  ops : int;  (** ops (or validated responses) completed in the slice *)
  segs : (ring * int * int) list;  (** per ring: sample counts at the slice's start and end *)
  steal_pct : float;  (** the host's steal share of all CPU time during the slice *)
}

let slice_samples sl =
  let valid = List.filter (fun (r, a, _) -> r.count - a <= Array.length r.buf) sl.segs in
  if List.length valid < List.length sl.segs then [||]
  else
    Array.concat
      (List.map
         (fun (r, a, b) -> Array.init (b - a) (fun i -> r.buf.((a + i) mod Array.length r.buf)))
         valid)

type slice_stat = { rate : float; p50 : float; p99 : float; p999 : float; n : int; steal : float }

(* A slice's rate (per second) and latency quantiles (in the samples'
   unit), read before its ring is reused. *)
let slice_stat sl =
  let a = slice_samples sl in
  let n = Array.length a in
  let rate = float_of_int sl.ops /. (float_of_int sl.dt_ns *. 1e-9) in
  match quantiles a n [ 0.5; 0.99; 0.999 ] with
  | [ p50; p99; p999 ] -> { rate; p50; p99; p999; n; steal = sl.steal_pct }
  | _ -> assert false

(* Slices during which the hypervisor took more than this share of the
   host's CPU time are left out while enough others remain. *)
let steal_limit_pct = 2.

(* The slices the figures are taken over: those with at most
   [steal_limit_pct] steal, or, when that is under half of them, the half
   with the least steal. Steal is time the host gave to other machines,
   and on a 2-CPU host with both CPUs busy it takes throughput away
   nearly one for one, whatever the program does. *)
let quiet stats =
  let n = List.length stats in
  let calm = List.filter (fun st -> st.steal <= steal_limit_pct) stats in
  if 2 * List.length calm >= n then calm
  else
    List.filteri (fun i _ -> 2 * i < n) (List.stable_sort (fun a b -> compare a.steal b.steal) stats)

(* Median of each figure over the quiet slices; slices without samples
   (their ring wrapped) count for the rate only. [n] counts the latency
   samples the medians were taken over. *)
let summarize stats =
  let med f l = median_float (List.map f l) in
  let kept = quiet stats in
  let lat = List.filter (fun st -> st.n > 0) kept in
  {
    rate = med (fun st -> st.rate) kept;
    p50 = med (fun st -> st.p50) lat;
    p99 = med (fun st -> st.p99) lat;
    p999 = med (fun st -> st.p999) lat;
    n = List.fold_left (fun acc st -> acc + st.n) 0 lat;
    steal = med (fun st -> st.steal) kept;
  }

(* A memory figure of this process from /proc/self/status, in MB:
   [field] is "VmRSS" (resident now) or "VmHWM" (peak resident). *)
let status_mb field =
  let prefix = field ^ ":" in
  let n = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > n && String.sub line 0 n = prefix then
              Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Whole-machine CPU ticks from /proc/stat: (steal, total). Steal is time
   the hypervisor gave this machine's CPUs to someone else; it is printed
   with every run and every slice so that a noisy host shows in the
   result. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      let fields =
        List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line @ [ "" ]))
      in
      let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 fields)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let steal_pct (s0, t0) (s1, t1) = 100. *. ratio (s1 - s0) (t1 - t0)
