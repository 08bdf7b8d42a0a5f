(** Named deterministic scenarios and the explore / replay drivers.

    A scenario is a pure function of (decisions, tail, mode): it builds
    a fresh instance, runs its thread bodies under {!Sched}, and
    post-checks the result. Families:

    - [lin-<structure>-<scheme>] (every scheme × list, skiplist): three
      scripted threads, Strict sanitization, a lifecycle trace checked by
      {!Trace_check}, and a {!Harness.Lin} linearizability check
      over virtually-timestamped histories.
    - [robust-<scheme>-<structure>] (every reclaiming scheme × list,
      skiplist): the paper's §1 descheduled-thread experiment as a
      deterministic assertion — a reader stalled forever mid-search must
      make EBR's unreclaimed count grow past a linear bound while
      HP/HE/IBR/VBR stay bounded and keep reclaiming.
    - Seeded bugs ([aba-immediate-free], [late-guard], [double-retire]):
      broken protocols the explorer must catch; their shrunk tokens form
      the [test/sched_fixtures/] corpus.

    Step quotas are derived per scenario from its thread count (a
    3-thread workload legitimately needs ~3× the slices of a 2-thread
    one), not from one global constant.

    {!explore} is coverage-guided by default (DESIGN.md §2.16): each
    execution's canonical {!Coverage} signature and choice-prefix trail
    feed a corpus of decision strings that reached novel territory, and
    mutants of those strings replace most uniform-random tails. Sleep-set
    pruning ({!Sched.Dpor}) is also on by default. *)

type failure = {
  cls : string;
      (** stable failure class: ["lin"], ["sanitizer"], ["trace"],
          ["robustness"], ["conservation"], ["quota"] or ["exn"] *)
  detail : string;
}

type report = {
  scenario : string;
  tail : Sched.tail;
  mode : Sched.mode;
  outcome : Sched.outcome;
  failure : failure option;  (** [None] = the run passed every check *)
}

val scenarios : string list
(** Every scenario name, table order. *)

val seeded_bugs : string list
(** The scenarios built over deliberately broken protocols: exploration
    is expected to find a failing schedule there, and a clean sweep over
    one of them means the explorer (not the scheme) regressed. *)

type spec = {
  sp_name : string;
  sp_tail : Sched.tail;  (** canonical tail policy *)
  sp_max_len : int;  (** canonical decision-string length *)
  sp_threads : int;  (** virtual threads the scenario spawns *)
  sp_quota : int;  (** step quota = threads × per-thread allowance *)
  sp_expect_bug : bool;
}
(** Static facts about a scenario, for drivers ({!Fleet}, the CLI) that
    schedule work without running it. *)

val spec : string -> spec
(** @raise Invalid_argument on an unknown scenario name. *)

val run_scenario :
  ?decisions:int array ->
  ?tail:Sched.tail ->
  ?mode:Sched.mode ->
  ?coverage:Coverage.t ->
  string ->
  report
(** Run one scenario once. [tail] defaults to the scenario's canonical
    policy (Round_robin for robust-*, First otherwise); [mode] defaults
    to [Plain]. [coverage], when given, receives the run's accesses and
    choices. @raise Invalid_argument on an unknown scenario name. *)

val replay : string -> report
(** Decode a {!Token} and re-run its scenario with exactly the recorded
    decisions in the recorded mode — the bit-for-bit reproduction path.
    @raise Token.Malformed on a bad (or stale pre-S2) token,
    [Invalid_argument] on an unknown scenario. *)

type stats = {
  st_execs : int;  (** executions actually run *)
  st_distinct : int;  (** distinct coverage signatures visited *)
  st_pruned : int;  (** candidates pruned by sleep sets, summed *)
  st_resets : int;  (** sleep-set progress resets, summed *)
  st_secs : float;  (** wall-clock seconds spent *)
}

type found = {
  f_token : string;  (** full recorded schedule of the failing run *)
  f_shrunk : string;  (** ddmin-minimised token, same failure class *)
  f_failure : failure;
  f_attempt : int;  (** 1-based attempt index that failed *)
  f_stats : stats;  (** coverage stats up to and including the catch *)
}

type explored = Clean of stats | Found of found

val explore :
  ?seed:int ->
  ?budget:int ->
  ?max_len:int ->
  ?guided:bool ->
  ?mode:Sched.mode ->
  scenario:string ->
  unit ->
  explored
(** Schedule exploration: up to [budget] (default 200) runs with decision
    strings of length [max_len] (default: per-scenario). [guided] (default
    true) turns on the coverage corpus + mutation loop; false means pure
    seeded-random strings. [mode] (default [Dpor]) selects sleep-set
    pruning. Stops at the first failing schedule, shrinks it with
    {!Shrink.ddmin} preserving the failure class, and returns both tokens
    plus coverage stats; [Clean stats] if no schedule failed.
    @raise Invalid_argument on an unknown scenario name. *)

val shrink :
  scenario:string ->
  tail:Sched.tail ->
  mode:Sched.mode ->
  cls:string ->
  int array ->
  int array
(** ddmin a failing decision string, preserving its failure class —
    exposed for drivers (the fleet, soak mode) that find failures
    outside {!explore}. *)
