(** Renderers over the {!Span} sink and {!Metric} registry.

    Formats:
    - {!report}: a flat text report (span timing table + metrics), for
      terminals;
    - {!chrome_trace}: Chrome trace-event format, loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} —
      includes the flight recorder's series as counter tracks;
    - {!openmetrics}: Prometheus/OpenMetrics text exposition of the
      current registry (with sketch-backed quantile summaries);
    - {!timeline_csv} / {!timeline_json}: dumps of the {!Recorder}
      flight-recorder timeline. *)

val span_report : unit -> string
(** Per-span timing table: one row per (cat, name), with call count,
    total/mean/max wall time, aggregated over every recorded span. *)

val metrics_report : unit -> string
(** Counters, gauges and histograms from the current
    {!Metric.snapshot}; histograms show total/underflow/overflow and a
    sparkline of the bucket mass. *)

val report : unit -> string
(** [span_report] followed by [metrics_report]. *)

val chrome_trace : unit -> string
(** Chrome trace-event JSON: every completed span becomes a complete
    ("X") event with microsecond [ts]/[dur], every flight-recorder
    column a counter ("C") track, plus process-name metadata.  The
    object form ([{"traceEvents": [...]}]) is used so Perfetto accepts
    the file as-is. *)

val openmetrics : unit -> string
(** OpenMetrics / Prometheus text exposition of the current
    {!Metric.snapshot}: counters as [name_total], gauges as-is, and
    histograms as summaries — [name{quantile="0.5"}] … lines backed by
    the mergeable quantile {!Sketch}, plus [name_sum]/[name_count].
    Metric names are sanitized to [[a-zA-Z0-9_:]]; the output ends with
    the mandatory [# EOF] terminator. *)

val timeline_csv : unit -> string
(** The {!Recorder} flight-recorder timeline as CSV: header
    [t_ms,events,label,<column …>], one row per sample (oldest first),
    [t_ms] counted from the first sample, [nan] cells left empty.
    Empty (header-only) when the recorder never ran. *)

val timeline_json : unit -> string
(** The {!Recorder} timeline as one JSON object: ["columns"] (name +
    kind ["cum"]/["inst"]), ["coarsenings"], and ["rows"] of
    [{t_ms, events, label, values}] with [nan] rendered as [null]. *)
