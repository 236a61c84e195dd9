(** Shared experiment machinery.

    Every table and figure derives from the same set of runs: for each
    benchmark we profile on the short input, build the plans, and replay
    the long input under seven policies (baseline, HDS [8], HALO, the
    Immix-style Block policy, and the three PreFix variants).
    [run_benchmark] performs that once;
    [run_all] memoizes across experiments so `bench/main.exe` replays
    each (benchmark, policy) pair exactly once however many tables ask
    for it. *)

module Metrics = Prefix_runtime.Metrics
module Plan = Prefix_core.Plan

type policy_run = { metrics : Metrics.t; plan : Plan.t option }

type long_source =
  | Materialized of Prefix_trace.Packed.t
      (** evaluation trace packed once, shared read-only by the seven
          policy replays and by experiments that replay it again *)
  | Streamed of (unit -> Prefix_trace.Stream.t)
      (** bounded-memory mode: each call re-runs the deterministic
          generator; no full trace ever exists in memory *)

type result = {
  wl : Prefix_workloads.Workload.t;
  profiling_trace : Prefix_trace.Trace.t;
  long_source : long_source;
  long_events : int;  (** length of the evaluation ("long") trace *)
  profiling_stats : Prefix_trace.Trace_stats.t;
  long_hot_share : float;
      (** fraction of the long run's heap accesses that go to its hot
          objects ([long_hot_set]); Table 5's long-run HA summary *)
  baseline : policy_run;
  hds : policy_run;
  halo : policy_run;
  block : policy_run;  (** Immix/Nofl-style block policy (interval-planned) *)
  prefix_hot : policy_run;
  prefix_hds : policy_run;
  prefix_hdshot : policy_run;
  long_hot_set : (int, unit) Hashtbl.t;  (** hot objects of the long run *)
  long_hds_set : (int, unit) Hashtbl.t;  (** long-run hot objects in streams *)
}

val long_stream : result -> Prefix_trace.Stream.t
(** The evaluation trace as a stream, for experiments that replay it
    again under other policies: one segment holding the packed trace
    itself for a materialized result, the source's own (re-generated or
    re-decoded) stream for a streamed one.  [run_benchmark] replays
    through the same stream. *)

val seed : int
(** The fixed experiment seed (7). *)

val set_streaming : bool -> unit
(** When true, [run_benchmark] evaluates the long run via a re-runnable
    {!Prefix_trace.Stream}: generation, analysis, stream detection and
    the seven-policy fan-out pass hold one segment of trace memory at a
    time.  When false the long run is generated and packed once and
    replayed as a one-segment stream.  Either way the seven policies
    replay in one {!Prefix_runtime.Executor.run_stream_many} pass and
    results are identical (the CLI's [--stream] flag).  Configure
    before the first run — the memo cache does not distinguish
    modes. *)

val set_segment_events : int option -> unit
(** Segment size (events) for streamed evaluation; [None] uses
    {!Prefix_trace.Stream.default_segment_events}. *)

val set_stream_container : [ `Generator | `Columnar ] -> unit
(** Source of the streamed evaluation (with {!set_streaming}):
    [`Generator] (default) re-runs the deterministic workload generator
    on every pass; [`Columnar] spools the stream once into a columnar
    (v3) container in the temp directory and streams every replay from
    the file — same segments, byte-identical reports, but the on-disk
    decode path is exercised end to end.  Spooled files are removed at
    process exit.  Configure before the first run (the CLI's
    [--stream-container] flag). *)

val set_eval_scale : Prefix_workloads.Workload.scale -> unit
(** Scale of the evaluation run (default [Long]; [Huge] is the
    streaming engine's target, ~10x longer). *)

val set_decode_once : bool -> unit
(** No-op, kept for callers of the retired switch: every run now
    replays its seven policies as consumers of a single decode pass
    ({!Prefix_runtime.Executor.run_stream_many}), which is what this
    setter used to turn on.  The CLI's deprecated [--decode-once] flag
    is likewise ignored. *)

val set_slot_mode : Prefix_core.Pipeline.slot_mode -> unit
(** Recycling-slot assignment mode for the PreFix plans: [Modulo]
    (default, Figure 7's rotation) or [Interval] (greedy coloring of
    profiled liveness intervals).  The CLI's [--slots] flag.  Configure
    before the first run — the memo cache does not distinguish modes. *)

val effective_pipeline_config : unit -> Prefix_core.Pipeline.config
(** {!pipeline_config} with the configured {!set_slot_mode} applied —
    what [run_benchmark] actually plans with. *)

val pipeline_config : Prefix_core.Pipeline.config
(** The configuration used for every benchmark's plans. *)

val exec_config : Prefix_runtime.Executor.config
(** Scaled hierarchy + default costs (see DESIGN.md). *)

val best_prefix : result -> policy_run * string
(** The best-performing PreFix variant (by cycles) and its short label
    ("Hot" / "HDS" / "HDS+Hot"). *)

val time_delta : result -> policy_run -> float
(** % execution-time change vs the run's baseline (negative = faster). *)

val profile_plans :
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  Prefix_core.Plan.t * Prefix_core.Plan.t * Prefix_core.Plan.t * Prefix_runtime.Hds_policy.plan
(** The PreFix Hot, HDS and HDS+Hot plans and the HDS baseline's plan of
    one profile, as [run_benchmark] builds them: all four share one OHDS
    detection, run in a "hds-detection" span. *)

val evaluate :
  Prefix_workloads.Workload.t ->
  profiling_trace:Prefix_trace.Trace.t ->
  long_source:long_source ->
  long_stats:Prefix_trace.Trace_stats.t ->
  long_hds:int list ->
  replay:
    ((Prefix_heap.Allocator.t -> Prefix_runtime.Policy.t) list ->
    Prefix_runtime.Executor.outcome list) ->
  result
(** The benchmark assembly both runners share, given the long run's
    statistics and HDS object ids: analyze the profile, classify the
    long run (hot set, HDS set, the hot set's access share; the
    statistics are not kept), build the six plans, hand the seven
    policies in report order to [replay] — one plain fan-out pass in
    {!run_benchmark}, a checkpointed one in {!Durable.run_benchmark} —
    and assemble the result from the seven outcomes it returns, in the
    same order.  Raises [Invalid_argument] if [replay] returns another
    number of outcomes. *)

val run_benchmark : Prefix_workloads.Workload.t -> result
(** Run one benchmark end to end (not cached): generate (or stream) the
    evaluation trace, measure it, and {!evaluate} it with one
    {!Prefix_runtime.Executor.run_stream_many} pass over the evaluation
    stream. *)

val set_jobs : int -> unit
(** Default [jobs] for {!run_all} / {!run_many} when no explicit
    [?jobs] is given, and for the experiments that map over independent
    benchmarks themselves.  Starts at 1 — the exact legacy sequential
    path; the CLI's [--jobs] flag lands here.  Values are clamped to
    [>= 1].  It spreads independent benchmarks only: one
    {!run_benchmark} replays on the domain that calls it, whatever
    [jobs] is. *)

val jobs : unit -> int
(** The {!set_jobs} setting. *)

val run_all : ?jobs:int -> unit -> result list
(** All 13 benchmarks, memoized for the lifetime of the process.
    Uncached benchmarks run in one {!Prefix_parallel.Pool.map} across
    [jobs] domains (default: the {!set_jobs} setting), and the calling
    domain memoizes what it returns.  Every benchmark seeds its own
    RNGs from fixed constants, so results and report text are
    bit-identical whatever [jobs] is; only wall time changes. *)

val run_many : ?jobs:int -> string list -> result list
(** Like {!run_all} for an explicit benchmark list, preserving list
    order in the results. *)

val clear_cache : unit -> unit
(** Forget all memoized results (tests use this to force fresh runs). *)

val find : string -> result
(** Memoized lookup by benchmark name.

    Progress is reported through the ["prefix.harness"] [Logs] source
    (see {!Prefix_obs.Log.harness}); install a reporter with
    [Prefix_obs.Log.setup ~level:(Some Logs.Info) ()] — or pass
    [--verbose] / [--log-level info] to the CLI — to see it.  Each
    benchmark run is additionally wrapped in a ["benchmark:<name>"]
    observability span whose children cover trace generation, the
    analysis passes, planning and the seven-policy ["replay:fanout"]. *)
