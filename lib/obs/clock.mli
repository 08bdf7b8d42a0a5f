(** Wall-clock reads for the measurement layer.

    vbr-verify's determinism rule (DESIGN.md §2.14) confines raw
    [Unix.gettimeofday] to [lib/harness] and [lib/obs]; everything else that legitimately needs
    a timestamp — the net subsystem's latency measurement, operator-facing
    progress lines — takes it through here so the policed planes stay free
    of clock reads. *)

val now_s : unit -> float
(** Seconds since the epoch (microsecond resolution). *)

val now_ns : unit -> int
(** Nanoseconds since the epoch, as an int (quantized to the underlying
    microsecond clock; wraps past year ~2262, which we accept). *)
