(** Hot-data-stream detection from memory traces (the analysis step of
    Figure 8).

    Pipeline: select hot objects (Figure 1), prune the access trace to
    those objects (collapsing consecutive repeats, which carry no
    inter-object locality information), then mine recurring object
    sequences:

    - [Lcs] (the paper's choice, §3.1): find the dominant repeat
      periods of the pruned sequence by autocorrelation, then compute
      longest common subsequences between windows one period apart;
      temporally-coherent runs of the LCS are the candidate streams.
      Short fixed chains that recur at irregular distances are picked
      up by a complementary frequent-n-gram pass.
    - [Sequitur] (the original HDS work's choice): infer a grammar and
      read the streams off the repeated rules.

    The result is the ordered HDS list (OHDS) that feeds Algorithm 1. *)

type method_ = Lcs | Sequitur

type config = {
  coverage : float;  (** hot-object selection coverage target (default 0.9) *)
  segment : int;  (** LCS window length (default 256) *)
  max_gap : int;  (** max positional gap within one stream (default 4) *)
  min_occurrences : int;  (** occurrences for a candidate to count (default 2) *)
  max_streams : int;  (** cap on returned streams (default 64) *)
  max_stream_len : int;  (** cap on objects per stream (default 32) *)
  max_lag : int;  (** autocorrelation search horizon (default 16384) *)
  max_periods : int;  (** number of candidate periods to mine (default 3) *)
  windows_per_lag : int;  (** LCS windows sampled per period (default 32) *)
  ngram_max : int;  (** longest n-gram mined alongside the LCS (default 4) *)
  ngram_min_hits : int;  (** occurrence floor for n-gram candidates (default 6) *)
}

val default_config : config

val hot_sequence :
  ?config:config -> Prefix_trace.Trace_stats.t -> Prefix_trace.Trace.t -> int array
(** The pruned hot-object access sequence: object ids of accesses to hot
    objects (selected at [config.coverage]) with consecutive duplicates
    collapsed. *)

val hot_sequence_stream :
  ?config:config -> Prefix_trace.Trace_stats.t -> Prefix_trace.Stream.t -> int array
(** Same pruned sequence off a segment stream — the trace is never
    materialized, only the (much smaller) pruned sequence is. *)

val dominant_periods : ?config:config -> int array -> int list
(** Candidate repeat periods of a sequence, best first, by sampled
    autocorrelation (exposed for tests). *)

val detect :
  ?config:config -> ?method_:method_ -> Prefix_trace.Trace.t -> Hds.t list
(** OHDS: detected streams in descending order of memory references.
    Streams have at least two member objects. *)

val detect_with_stats :
  ?config:config ->
  ?method_:method_ ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  Hds.t list
(** Same, reusing an existing analysis to avoid a second trace pass. *)

val detect_stream :
  ?config:config ->
  ?method_:method_ ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Stream.t ->
  Hds.t list
(** {!detect_with_stats} off a segment stream: identical OHDS (the
    miners run on the same pruned sequence), bounded trace memory. *)
