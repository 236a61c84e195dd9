(** Crash-recovery campaign: SIGKILL durable runs at randomized
    checkpoint boundaries, resume them, and require the final report to
    be byte-identical to an uninterrupted run's.

    Each case runs one or two benchmarks (jobs 1 and 2 — the two-domain
    case puts kill points inside concurrent checkpoint writers) as a
    chain of forked children over a shared checkpoint directory.  A
    child SIGKILLs itself after its k-th checkpoint write (seeded RNG);
    between children the parent sometimes tears the newest checkpoint
    file — truncation or a byte flip — to exercise the CRC + [.prev]
    fallback.  The parent stays single-domain: every durable run,
    including the clean reference, happens in a child, so forking never
    races a running domain.

    Cases cycle (fresh directories, fresh kill schedules) until
    [target_kills] kills have been exercised. *)

type config = {
  benches : string list;
  dir : string;  (** campaign root; one subdirectory per case instance *)
  seed : int;
  target_kills : int;
  scale : Prefix_workloads.Workload.scale;
  segment_events : int;
  every : int;  (** checkpoint every N segments *)
}

val default_config : dir:string -> config
(** libc + swissmap, seed 42, 20 kills, Profiling evaluation scale,
    1024-event segments, checkpoint every segment. *)

type summary = {
  s_cases : int;
  s_kills : int;
  s_torn : int;
  s_resumes : int;
  s_divergences : (string * string) list;
  s_failures : (string * string) list;
}

val run : ?progress:(string -> unit) -> config -> summary
(** Raises [Invalid_argument] on an empty benchmark list and [Failure]
    on unknown benchmark names. *)

val ok : summary -> bool
(** No divergences, no failures, at least one case completed. *)

val report : summary -> string
