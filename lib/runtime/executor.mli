(** Trace replay: run a trace through a set of policies, feed each
    resulting address stream into its own cache hierarchy, and produce
    each run's {!Metrics.t}.  {!run_stream_many} is the one way to
    replay; {!run_boxed} is its test oracle, and the session API lets
    a caller checkpoint a fan-out between segments.

    Multithreaded traces get one private L1 and TLB pair per thread and
    a shared LLC; total cycles are divided by the thread count (a
    perfectly-parallel model, adequate for the {e relative} comparisons
    of Figure 10). *)

type config = {
  hierarchy : Prefix_cachesim.Hierarchy.config;
  cycle_params : Prefix_cachesim.Cycles.params;
  costs : Costs.t;
}

val default_config : config
(** Scaled hierarchy (see {!Prefix_cachesim.Hierarchy.scaled_config}),
    default cycle parameters and costs. *)

type recovery = {
  double_allocs : int;  (** allocations of an already-live id (treated as implicit free) *)
  unknown_accesses : int;  (** accesses to never-allocated or freed ids (skipped) *)
  unknown_frees : int;  (** stray / double frees (skipped) *)
  unknown_reallocs : int;  (** reallocs of unknown ids (skipped) *)
  invalid_sizes : int;  (** non-positive alloc/realloc sizes (clamped / kept) *)
  policy_failures : int;
      (** policy calls that raised and degraded to a plain heap action *)
}
(** What a lenient replay recovered from.  All-zero in strict mode (the
    first anomaly raises) and on well-formed traces in either mode. *)

val no_recovery : recovery

val recovery_total : recovery -> int

val pp_recovery : Format.formatter -> recovery -> unit

type outcome = {
  metrics : Metrics.t;
  heatmap : Prefix_cachesim.Heatmap.t option;
  attribution : Attribution.t option;
      (** per-site miss attribution, when requested *)
  recovery : recovery;
      (** lenient-mode recovery actions taken during the replay *)
}

val run_stream_many :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  policies:(Prefix_heap.Allocator.t -> Policy.t) list ->
  Prefix_trace.Stream.t ->
  outcome list
(** The one replay entry point: [run_stream_many ~policies stream]
    creates a fresh simulated heap per policy, instantiates the policy
    on it, and replays every event of [stream] under each.  One pass
    over the stream hands each segment to every policy's session in
    turn before the next segment is decoded, so N policies cost one
    decode instead of N and a pass holds one segment of trace memory at
    a time.  A materialized trace replays as a one-segment stream
    ({!Prefix_trace.Stream.of_packed} with [segment_events] at least
    its length), straight off its packed arrays.

    All replay state (heap, caches, object table, counters, heatmap,
    attribution, telemetry cursor keyed on the global event index)
    carries across segment boundaries, so an outcome does not depend on
    how the stream is cut.  Sessions are fully independent: each
    outcome — metrics, recovery counters, heatmap, attribution — is
    exactly what a fan-out of that policy alone produces, and equals
    {!run_boxed}'s.  Outcomes are returned in [policies] order; replay
    one policy with a fan-out of one.

    [heatmap_objs] selects the objects whose accesses feed the Figure 9
    heatmap; [attribute] turns on per-site miss attribution (both off by
    default — they cost memory).  Both apply to every session.

    [mode] defaults to [Strict], which raises [Invalid_argument] on
    malformed traces (allocation of a live id, access to an unknown id,
    ...) and so ends the whole fan-out.  [Lenient] never raises on
    malformed input: every anomaly becomes a counted recovery action
    (reported in the outcome's [recovery] field and, when observability
    is on, the [executor.recovered.*] metric counters).

    The pass runs in one ["replay:fanout"] observability span. *)

val run_boxed :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  policy:(Prefix_heap.Allocator.t -> Policy.t) ->
  Prefix_trace.Trace.t ->
  outcome
(** The original event-by-event reference interpreter over the boxed
    trace, kept as the differential-testing oracle for
    {!run_stream_many}: the tests and the benchmark's report check
    replay traces through both and require identical outcomes.  Not
    used on any hot path. *)

(** {2 Sessions}

    All state that crosses a segment boundary in a streamed replay —
    simulated heap, policy state (regions, arenas, recycle slots),
    cache/TLB arrays, dense object table, recovery counters,
    heatmap/attribution, telemetry cursor — lives in a [session].
    {!run_stream_many} folds one per policy over every segment.
    Exposing the session lets callers drive that fan-out themselves:
    pause a replay at a segment boundary, serialize it, and resume
    later (the checkpoint machinery of {!Checkpoint}). *)

type session

val session_create :
  config:config ->
  mode:Policy.mode ->
  heatmap_objs:(int -> bool) option ->
  attribute:bool ->
  heap:Prefix_heap.Allocator.t ->
  p:Policy.t ->
  session
(** [p] must have been instantiated on [heap]. *)

val sessions_create :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  (Prefix_heap.Allocator.t -> Policy.t) list ->
  session list
(** One fresh session per policy, in order, each on its own heap — the
    sessions {!run_stream_many} folds over the stream, for callers that
    drive (and checkpoint) the fan-out themselves. *)

val replay_segment : session -> base:int -> Prefix_trace.Packed.t -> unit
(** Advance the session by one packed segment whose first event has
    global index [base].  Segments must arrive in stream order. *)

val session_events : session -> int
(** Events replayed so far (the resume cursor). *)

val session_finish : session -> outcome
(** Produce the outcome.  Call once, after the last segment. *)

val session_serialize : session -> string
(** Snapshot the complete session state (one [Marshal] with closures,
    preserving all internal sharing).  The encoding embeds code
    digests: a snapshot only deserializes in the binary that wrote
    it — a deliberate staleness guard for checkpoints. *)

val session_deserialize : string -> (session, string) result
(** Inverse of {!session_serialize}; [Error] (never an exception) when
    the snapshot is corrupt or was written by a different binary. *)
