(* Suppression granularity regression: [@vbr.allow] must silence
   vbr-verify at three levels. Each block below reproduces a violation
   another fixture file proves is caught, then suppresses it -- at
   expression, binding and file granularity. This file must contribute
   zero findings. *)

(* file-level: floating attribute suppresses the whole file *)
[@@@vbr.allow "blocking-in-critical-section"]

module Make (V : Fx_intf.OPT) = struct
  let m = Mutex.create ()

  (* expr-level: the attribute rides on the read itself *)
  let helper c key = (V.get_key c key [@vbr.allow "checkpoint-dominance"])

  let lookup (t : V.t) key =
    let c = V.ctx t ~tid:0 in
    helper c key

  (* binding-level: the quiescent-helper idiom from the real tree *)
  let to_list (r : int Atomic.t) = Atomic.get r
  [@@vbr.allow "raw-atomic"]

  (* suppressed by the file-level attribute above *)
  let blocked () = Mutex.lock m

  let op (t : V.t) =
    let c = V.ctx t ~tid:0 in
    V.checkpoint c (fun () -> blocked ())
end
