(** One ordered parallel map over OCaml 5 domains.

    {!map} spreads independent items across domains and merges their
    results back {e in input order} regardless of which domain ran which
    item or in what order they finished, so it is observationally
    identical to [List.map] whenever the items are independent — the
    property every consumer (the harness's and durable runs' benchmark
    fan-out, the fuzz campaign) relies on for byte-identical reports.

    Every item executed on a spawned domain or the caller counts into
    the ["parallel.tasks"] counter of {!Prefix_obs.Metric} (subject to
    the global {!Prefix_obs.Control} switch); the [List.map] shortcut
    counts nothing. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [[1, 64]] — the
    default for every CLI [--jobs] flag. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] and returns
    the results in the order of [xs].

    Below two jobs or two items it {e is} [List.map]: no domain is
    spawned.  Otherwise [min jobs (List.length xs) - 1] domains are
    spawned; they and the caller claim items from one shared counter
    until none is left, and the domains are joined before [map]
    returns.  Items must not depend on each other; [f] runs
    concurrently with itself.

    An exception raised by [f] is caught on the domain that ran the
    item and re-raised, with its backtrace, once every item has
    finished; when several items fail, the one earliest in [xs] wins. *)
