(** Trace replay: run a workload trace through a policy, feed the
    resulting address stream into the cache hierarchy, and produce the
    run's {!Metrics.t}.

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

val run :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  policy:(Prefix_heap.Allocator.t -> Policy.t) ->
  Prefix_trace.Trace.t ->
  outcome
(** [run ~policy trace] creates a fresh simulated heap, instantiates the
    policy on it, and replays every event.  [heatmap_objs] selects the
    objects whose accesses feed the Figure 9 heatmap; [attribute] turns
    on per-site miss attribution (both off by default — they cost
    memory).

    [mode] defaults to [Strict], which raises [Invalid_argument] on
    malformed traces (allocation of a live id, access to an unknown id,
    ...).  [Lenient] never raises on malformed input: every anomaly
    becomes a counted recovery action (reported in the outcome's
    [recovery] field and, when observability is on, the
    [executor.recovered.*] metric counters).

    Equivalent to [run_packed ... (Packed.of_trace trace)] — callers
    that replay the same trace more than once should pack it themselves
    and call {!run_packed} directly. *)

val run_packed :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  policy:(Prefix_heap.Allocator.t -> Policy.t) ->
  Prefix_trace.Packed.t ->
  outcome
(** The replay fast path: identical semantics, metrics, recovery
    counters and observability behavior to {!run}, but driven off the
    struct-of-arrays encoding with an allocation-free dispatch loop, a
    dense object table in place of the per-event [live] Hashtbl, and a
    memoized last-thread cache slot.  A packed trace is read-only here
    and can be shared across policies and worker domains. *)

val run_stream_many :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  policies:(Prefix_heap.Allocator.t -> Policy.t) list ->
  Prefix_trace.Stream.t ->
  outcome list
(** Bounded-memory, decode-once replay — the one streamed entry point:
    one pass over the stream hands each segment to every policy's
    session in turn before the next segment is decoded, so N policies
    cost one decode instead of N and a pass holds one segment of trace
    memory at a time.  All replay state (heap, caches, object table,
    counters, heatmap, attribution, telemetry cursor keyed on the
    global event index) carries across segment boundaries, and
    sessions are fully independent: each outcome — metrics, recovery
    counters, heatmap, attribution, and strict-mode exceptions — is
    exactly what {!run_packed} produces for that policy on the
    materialized trace.  [heatmap_objs] and [attribute] apply to every
    session.  Outcomes are returned in [policies] order; a one-policy
    streamed replay is a fan-out of one. *)

val run_boxed :
  ?config:config ->
  ?mode:Policy.mode ->
  ?heatmap_objs:(int -> bool) ->
  ?attribute:bool ->
  policy:(Prefix_heap.Allocator.t -> Policy.t) ->
  Prefix_trace.Trace.t ->
  outcome
(** The original event-by-event reference interpreter over the boxed
    trace, kept as the differential-testing oracle for {!run_packed}:
    the tests and the benchmark's report check replay through both and
    require identical outcomes.  Not used on any hot path. *)

val run_baseline :
  ?config:config -> ?mode:Policy.mode -> Prefix_trace.Trace.t -> outcome
(** Shorthand for running the {!Policy.baseline}. *)

(** {2 Sessions}

    All state that crosses a segment boundary in a streamed replay —
    simulated heap, policy state (regions, arenas, recycle slots),
    cache/TLB arrays, dense object table, recovery counters,
    heatmap/attribution, telemetry cursor — lives in a [session].
    {!run_packed} is a session over one segment; {!run_stream_many}
    folds one per policy over every segment.  Exposing the session lets
    callers pause a replay at a segment boundary, serialize it, and
    resume later (the checkpoint machinery of {!Checkpoint}). *)

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
