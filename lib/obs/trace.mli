(** Per-thread lifecycle trace rings (DESIGN.md §2.10).

    A trace owns one fixed-capacity ring per worker thread. Emitting an
    event writes seven ints into a preallocated flat array — no per-event
    heap structure — and draws a global sequence number from one shared
    fetch-and-add, so a dump can be replayed in a total order that agrees
    with real time at every emission point. Backends hold a
    [ring option] per thread: [None] (the default, when {!Smr_intf.CORE}
    [set_trace] was never called) keeps every hook a single match on an
    immediate, so tracing disabled costs nothing measurable.

    Emission placement contract (what makes the offline checker in
    [Trace_check] sound, i.e. free of false positives on a correct
    execution): events that {e extend} protection or {e enter} a
    lifecycle stage ([Guard_acquire], [Alloc]) are emitted {e after} the
    corresponding store is visible; events that {e shrink} protection or
    {e exit} a stage ([Guard_release], [Retire], [Reclaim], [Dealloc])
    are emitted {e before} it. *)

type kind =
  | Alloc  (** slot handed to the structure; v1 = birth, epoch = clock *)
  | Dealloc  (** unpublished slot returned (e.g. VBR pending flush) *)
  | Retire  (** slot unlinked and retired; v1 = birth, v2 = retire epoch *)
  | Reclaim  (** retired slot returned to the pool; v1/v2 as [Retire] *)
  | Reuse  (** pool recycled a previously returned slot *)
  | Rollback  (** VBR: epoch moved under an operation; v1 = old, v2 = new *)
  | Epoch_advance  (** global clock moved; v1 = old, v2 = new *)
  | Checkpoint  (** VBR: rollback handler (re)armed at epoch *)
  | Guard_acquire
      (** protection visible; slot = protected node (index guards) or 0,
          [v1,v2] = protected birth-epoch interval (v2 = -1 means +inf),
          epoch = guard slot id *)
  | Guard_release  (** epoch = guard slot id, or -1 for "all guards" *)
  | Cas_fail  (** versioned CAS lost a race; slot, v1 = expected birth *)
  | Sched_yield
      (** virtual scheduler context switch (Schedsim); slot = thread
          scheduled in, v1 = thread scheduled out, v2 = global step *)

val all_kinds : kind list
val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type t
(** A trace: per-thread rings sharing one sequence counter and origin. *)

type ring

val default_capacity : int
(** Rows per ring when [create] is not given [?capacity] (65536). *)

val create : ?capacity:int -> n_threads:int -> scheme:string -> unit -> t
(** [capacity] is in events {e per thread}; once a ring is full the
    oldest events are overwritten and counted in [d_dropped]. *)

val ring : t -> tid:int -> ring
val scheme : t -> string
val capacity : t -> int

val emit : ring -> kind -> slot:int -> v1:int -> v2:int -> epoch:int -> unit
(** Record one event. Single-threaded per ring (each worker owns its
    ring); safe to call concurrently across rings. *)

val dropped : t -> int
(** Events overwritten so far, summed over all rings. *)

(** {1 Dumps} *)

type event = {
  e_tid : int;
  e_seq : int;  (** global emission order *)
  e_t_ns : int;  (** nanoseconds since the trace was created *)
  e_kind : kind;
  e_slot : int;
  e_v1 : int;
  e_v2 : int;
  e_epoch : int;
}

type dump = {
  d_scheme : string;
  d_threads : int;
  d_capacity : int;
  d_dropped : int;
  d_events : event array;  (** ascending [e_seq] *)
}

val dump : t -> dump
(** Snapshot every ring. Call after the traced workers have joined: the
    rings are not synchronized against concurrent emission. *)

val csv_header : string

val write_csv : string -> dump -> unit
(** Line 1: [# scheme=... threads=... capacity=... dropped=...];
    line 2: {!csv_header}; one event per line after that (so event [i]
    of [d_events] sits on file line [i + 3] — the line the offline
    checker anchors findings to). *)

val load_csv : string -> dump
(** Inverse of {!write_csv}. Raises [Failure "file:line: reason"] on a
    malformed file. *)

val write_chrome : string -> dump -> unit
(** Chrome trace-event JSON (open in chrome://tracing or Perfetto):
    instant events, one named virtual thread per ring, timestamps in
    microseconds, slot/versions/epoch/seq under [args]. *)
