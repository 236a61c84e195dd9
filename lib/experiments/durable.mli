(** Durable (checkpointed) benchmark runs.

    A durable run produces exactly the {!Harness.result} (and report
    text) an uninterrupted [Harness.run_benchmark] would, while
    persisting its progress to a checkpoint directory at stream segment
    boundaries: kill the process at any point and {!resume} finishes
    the run instead of restarting it, with a byte-identical report.

    Per benchmark the directory holds a [manifest] (run identity:
    bench, scale, seed, streaming mode, segment size, trace and config
    digests — validated on resume, so a stale or mismatched checkpoint
    directory is refused — plus the [jobs] it ran with, which is not
    part of the identity), rolling [*.ckpt]/[*.ckpt.prev]
    snapshots for the long-run statistics pass ([stats.ckpt]) and the
    seven-policy replay ([replay.ckpt]: the seven policies replay in
    one fan-out pass, and each save holds all seven executor sessions
    at one segment boundary), and [*.done] results for finished phases
    ([stats.done], [class.done], and [replay.done] with the seven
    outcomes).  All files are self-validating
    {!Prefix_runtime.Checkpoint} containers written atomically; a torn
    snapshot falls back to the previous one.

    Stream detection (the [class] phase) has no mid-phase snapshot and
    restarts if interrupted; trace generation, profiling analysis and
    planning are recomputed deterministically on every resume. *)

type t = {
  dir : string;  (** root checkpoint directory (one subdir per bench) *)
  every : int;  (** checkpoint every N stream segments *)
  throttle_ms : float;
      (** minimum wall-clock spacing between periodic saves — bounds
          checkpointing overhead at roughly [save_cost / throttle_ms]
          whatever the segment size (0 to checkpoint at the full
          [every] cadence, as the crash campaign does) *)
  guardrails : Prefix_runtime.Checkpoint.guardrails;
      (** checked at segment boundaries; a breach flushes a final
          checkpoint and raises {!Prefix_runtime.Checkpoint.Breach} *)
  jobs : int;
      (** benchmarks replayed in parallel by {!run_many}; recorded in
          the manifest but not checked, so a run may be finished under
          another [jobs] *)
  scale : Prefix_workloads.Workload.scale;  (** evaluation scale *)
  streaming : bool;  (** bounded-memory evaluation ([--stream]) *)
  segment_events : int option;
}

val default : dir:string -> t
(** jobs 1, checkpoint every 8 segments, no guardrails, Long scale,
    materialized evaluation. *)

val run_benchmark : t -> Prefix_workloads.Workload.t -> Harness.result
(** Run (or finish) one benchmark durably: the long-run statistics and
    classification passes, then {!Harness.evaluate} with one
    checkpointed fan-out replay.  Raises [Invalid_argument] when
    [every <= 0] (before any work), [Failure] on a checkpoint identity
    mismatch and [Checkpoint.Breach] on a guardrail breach (after
    flushing a resumable checkpoint). *)

val run_many : t -> string list -> Harness.result list
(** Durable {!Harness.run_many}: independent benchmarks spread across
    [jobs] domains by {!Prefix_parallel.Pool.map}; each benchmark raises
    as {!run_benchmark} does. *)

val resume :
  dir:string ->
  every:int ->
  guardrails:Prefix_runtime.Checkpoint.guardrails ->
  string list * Harness.result list
(** Finish every benchmark recorded under [dir], each under the
    configuration (scale, streaming, segment size, jobs) its own
    manifest records — benchmarks checkpointed with different settings
    can share a directory.  Benchmarks spread across as many domains as
    the largest recorded [jobs].  Returns the benchmark names with their
    results.  Raises [Invalid_argument] when [every <= 0], before any
    work. *)

val check : dir:string -> (string, string) result
(** Validate every container under [dir] — magic, CRCs, kind, identity
    — without loading any state or replaying anything.  [Ok report]
    when everything is intact, [Error report] otherwise. *)

val render : Harness.result -> string
(** The exact per-policy report text `prefix run` prints: shared by the
    CLI and the crash campaign so reports can be diffed byte-for-byte. *)
