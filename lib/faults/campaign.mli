(** Fault-injection campaign driver: sweep fault kinds x benchmarks x
    policies x seeds and verify the robustness layer end to end.

    Each run corrupts a benchmark's profiling-scale trace with one
    seeded fault, then exercises both failure postures:

    - {b lenient}: the corrupted stream is replayed directly under
      {!Prefix_runtime.Executor} in [Lenient] mode — the campaign
      asserts this never raises and that the replay's memory footprint
      never exceeds the clean run's ([drift_ok]);
    - {b strict}: {!Prefix_trace.Sanitizer.check} must reject the
      corrupted stream with a structured report, and the repaired trace
      from {!Prefix_trace.Sanitizer.sanitize} must replay cleanly under
      the fail-fast strict executor. *)

type policy_id = Hds | Halo | Block | Prefix

val all_policies : policy_id list

val policy_name : policy_id -> string

val policy_of_name : string -> (policy_id, string) result

type config = {
  benches : string list;
  policies : policy_id list;
  kinds : Injector.kind list;
  seeds : int;  (** fault seeds [0 .. seeds-1] per combination *)
  rate : float;  (** fraction of candidate events corrupted per injection *)
  region_cap : int option;
      (** per-region byte cap for HDS/HALO pools (and the Block
          policy's block space) during the lenient replay, to exercise
          exhaustion -> malloc degradation *)
}

val default_config : config
(** All 13 benchmarks, all four policies, every fault kind, 8 seeds,
    1% rate, no region cap. *)

type run = {
  bench : string;
  policy : string;
  kind : Injector.kind;
  fault_seed : int;
  scan : Prefix_trace.Sanitizer.report;
  recovered : int;
  degraded : int;
  strict_rejected : bool;
  region_peak : int;
      (** peak region bytes during the lenient replay — reported in the
          table (not gated: drop-free faults legitimately raise it) *)
  lenient_exn : string option;
  repaired_exn : string option;
  drift : float;
  drift_ok : bool;
}

type summary = { cfg : config; runs : run list }

val run : ?jobs:int -> ?progress:(string -> unit) -> config -> summary
(** Execute the sweep across [jobs] domains (default 1 — the
    sequential path) with {!Prefix_parallel.Pool.map}.  Per-benchmark
    contexts are built first, then the benches x policies x kinds x
    seeds grid is sharded one run per item; records merge back in grid
    order, so the summary (and its rendered report) is byte-identical
    for every [jobs].  [progress] is called once per benchmark as its
    context is built — from a spawned domain when [jobs > 1]. *)

val exceptions : summary -> string list
(** Human-readable description of every uncaught exception (must be
    empty for a healthy robustness layer). *)

val drift_violations : summary -> run list

val ok : summary -> bool
(** No uncaught exceptions and no drift violations. *)

val report : summary -> string
(** Render the per-(fault, policy) anomaly/degradation table plus the
    exception and drift summaries. *)
