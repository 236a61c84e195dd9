(** Fixed-size domain pool with deterministic fan-out/merge.

    A pool owns [jobs - 1] worker domains plus the submitting domain
    (which drains the queue alongside the workers while a {!map} is in
    flight), so [jobs] tasks make progress at once.  Task results are
    merged back {e in input order} regardless of which domain ran which
    task or in what order they finished, so a pooled [map] is
    observationally identical to [List.map] whenever the tasks are
    independent — the property every consumer (the harness's and
    durable runs' benchmark fan-out, the fuzz campaign) relies on for
    byte-identical reports.

    [jobs = 1] short-circuits the machinery entirely: no domains are
    spawned and {!map} {e is} [List.map], the exact legacy sequential
    path.

    Exceptions raised by a task are caught on the worker, carried back
    with their backtrace, and re-raised on the submitting domain once
    every task of the batch has settled; when several tasks fail the
    one earliest in input order wins.

    Utilization is exported through {!Prefix_obs.Metric} (subject to
    the global {!Prefix_obs.Control} switch):

    - ["parallel.tasks"]   — tasks executed, on any domain;
    - ["parallel.steals"]  — tasks the submitting domain stole from the
                             queue instead of waiting idle;
    - ["parallel.idle_ns"] — cumulative nanoseconds workers spent
                             parked on an empty queue. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [[1, 64]] — the
    default for every CLI [--jobs] flag. *)

val create : jobs:int -> t
(** Spawn a pool of [max 1 jobs] slots ([jobs - 1] worker domains).
    Pools are cheap but not free (one OS thread per worker); reuse one
    pool across successive [map]s rather than creating one per call. *)

val jobs : t -> int
(** The slot count the pool was created with (>= 1). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs] across the pool
    and returns the results in the order of [xs].  Tasks must not
    depend on each other; [f] runs concurrently with itself. *)

val shutdown : t -> unit
(** Drain and join the worker domains.  Idempotent.  Calling {!map}
    after [shutdown] raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down afterwards, even when [f] raises. *)
