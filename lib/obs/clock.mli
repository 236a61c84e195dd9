(** Monotonic time source.

    Wall-clock time ([Unix.gettimeofday]) can jump backwards under NTP
    adjustment, which would produce negative span durations; all span
    timing therefore goes through the CLOCK_MONOTONIC stub that ships
    with bechamel. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary (but fixed) origin.  Guaranteed
    non-decreasing process-wide (across domains): readings are clamped
    against a shared high-water mark, so even a misbehaving underlying
    clock cannot yield negative span durations or out-of-order
    time-series samples. *)

val us_of_ns : int64 -> float
(** Microseconds as a float — the unit of Chrome trace-event [ts]/[dur]
    fields. *)

val ms_of_ns : int64 -> float
