(** End-to-end PreFix planning: trace in, optimization plan out
    (the analysis half of Figure 8).

    Steps: hot-object selection → HDS detection (LCS or Sequitur) →
    Algorithm 1 reconstitution → placement order per variant → site
    promotion (sites whose allocations are almost all hot are treated
    as "all ids" sites) → counter sharing → recycling analysis →
    offset assignment → plan. *)

type slot_mode =
  | Modulo  (** Figure 7: slot = (id - 1) mod N *)
  | Interval
      (** greedy interval-graph coloring over profiled liveness
          intervals ({!Intervals.slot_assignment}); instances outside
          the profile fall back to modulo *)

val slot_mode_name : slot_mode -> string
(** ["modulo"] / ["interval"] — the CLI's [--slots] values. *)

type config = {
  coverage : float;  (** hot-object coverage target (default 0.95) *)
  detector : Prefix_hds.Detector.config;
  method_ : Prefix_hds.Detector.method_;  (** default [Lcs] (§3.1) *)
  counter_sharing : bool;  (** default true *)
  recycling : bool;  (** default true *)
  recycle_config : Recycle.config;
  slot_mode : slot_mode;
      (** how recycling blocks map instance ids to slots (default
          [Modulo], the paper's scheme) *)
  max_prealloc_bytes : int option;
      (** cap on the preallocated region (§1: "controlled by limiting
          the size of the preallocated memory") *)
  promote_site_threshold : float;
      (** a site whose hot fraction is at least this becomes an
          "all ids" site (default 0.8) *)
  promote_site_min_allocs : int;  (** default 8 *)
  hybrid_context : bool;
      (** §2.2.2's hybrid mechanism: gate a site's counter on the single
          call-stack signature its hot objects share, so the instance
          numbering survives input-dependent interleaving with the
          site's other allocation paths (default false) *)
  lifetime_arenas : bool;
      (** group the region by {!Lifetimes} class — several arenas'
          worth of segregation inside one preallocated block (default
          false; the paper leaves per-lifetime arenas as future work) *)
}

val default_config : config

val analyze : Prefix_trace.Trace.t -> Prefix_trace.Trace_stats.t
(** [Trace_stats.analyze] under a "trace-analysis" observability span;
    use this instead of calling the analyzer directly when the run
    should show up in span reports and Chrome traces. *)

val analyze_packed : Prefix_trace.Packed.t -> Prefix_trace.Trace_stats.t
(** {!analyze} off an already-packed trace, avoiding a second packing
    when the caller also replays the packed form. *)

val analyze_stream : Prefix_trace.Stream.t -> Prefix_trace.Trace_stats.t
(** {!analyze} off a segment stream under the same "trace-analysis"
    span: identical statistics, one segment of trace memory. *)

val plan :
  ?config:config -> variant:Plan.variant -> Prefix_trace.Trace.t -> Plan.t

val plan_with_stats :
  ?config:config ->
  ?ohds:Prefix_hds.Hds.t list ->
  variant:Plan.variant ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  Plan.t
(** Like {!plan} but reuses an existing trace analysis.  [ohds], when
    given, must be [Detector.detect_with_stats ~config:config.detector
    ~method_:config.method_] of the same profile: the variants then
    share one detection instead of each running its own. *)

val all_variants :
  ?config:config -> Prefix_trace.Trace.t -> (Plan.variant * Plan.t) list
(** Plans for Hot, Hds and HdsHot sharing one analysis pass. *)
