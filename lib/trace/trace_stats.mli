(** Per-object and per-site statistics over a recorded trace.

    This is the analysis front-end of the PreFix pipeline (Figure 8): from
    the raw trace we derive, for every dynamic object, its allocation site,
    call-stack signature, size, access count and lifetime interval, and for
    every static site the ordered list of dynamic instances it produced.
    Hot-object selection (the basis of the paper's Figure 1) lives here. *)

type obj_info = private {
  obj : int;  (** dynamic object id *)
  site : int;  (** static malloc site *)
  ctx : int;  (** call-stack signature (HALO-style) *)
  mutable size : int;  (** final size after any reallocs *)
  alloc_size : int;  (** size at allocation *)
  mutable accesses : int;  (** number of Access events *)
  alloc_index : int;  (** trace position of the Alloc event *)
  mutable free_index : int option;  (** trace position of the Free event, if freed *)
  instance : int;  (** 1-based dynamic allocation instance within [site] *)
}
(** Read-only outside this module.  The three mutable fields are
    written only by {!feed}, in place, as the collector consumes Access,
    Free and Realloc events (no record is copied per event); they are
    final once {!finish} has run.  The record layout is that of an
    immutable record of the same fields, so a marshaled {!collector}
    keeps its bytes. *)

type site_info = {
  site_id : int;
  alloc_count : int;  (** dynamic allocations from this site *)
  site_objects : int list;  (** object ids in allocation order *)
  site_accesses : int;  (** total accesses to this site's objects *)
}

type t

val analyze : Trace.t -> t
(** Single pass over the trace building all statistics (packs the
    trace first; equivalent to [analyze_packed (Packed.of_trace t)]). *)

val analyze_packed : Packed.t -> t
(** Same statistics straight off a packed trace — use this when the
    caller already holds a {!Packed.t} so the stream is only packed
    once. *)

val analyze_stream : Stream.t -> t
(** Online single-pass fold over a segment stream: identical results to
    {!analyze_packed} on the materialized trace, but holding only one
    segment of trace memory at a time. *)

val objects : t -> obj_info list
(** All dynamic objects in allocation order.  When an object id is
    reused (corrupted / lenient traces), every incarnation appears
    once — reuse no longer double-counts the latest incarnation. *)

val obj_info : t -> int -> obj_info
(** Info for one object id — the {e latest} incarnation when the id was
    reused; raises [Not_found] for unknown ids. *)

val sites : t -> site_info list
(** All static sites, ascending by id. *)

val site_info : t -> int -> site_info

val site_members : t -> int -> obj_info list
(** Every incarnation allocated at a site, in allocation order ([[]]
    for an unknown site) — {!objects} restricted to one site. *)

val total_heap_accesses : t -> int

val trace_length : t -> int
(** Number of events the analysis consumed (the trace/stream length). *)

val max_live_objects : t -> int
(** Maximum number of simultaneously-live objects at any trace point —
    the quantity that makes object recycling applicable (§2.4).  Only
    the first Free of an object ends its lifetime: duplicate frees
    (tolerated by lenient replay) no longer drive the live count
    negative, and a reused id counts as at most one live object. *)

val reused_ids : t -> int
(** Number of Alloc events whose object id was already known — i.e. how
    many incarnations beyond the first each id contributed.  0 for
    well-formed traces. *)

val max_live_objects_of_site : t -> int -> int
(** Same, restricted to objects from one site. *)

val hot_objects : ?coverage:float -> ?min_accesses:int -> t -> obj_info list
(** [hot_objects ~coverage t] is the smallest prefix of objects in
    descending access order whose accesses cover at least [coverage]
    (default 0.9) of all heap accesses.  Objects accessed fewer than
    [min_accesses] times (default 4) never qualify, however much
    coverage is still missing — an object touched once or twice is
    cold no matter what.  These are the paper's "hot heap objects". *)

val heap_access_share : t -> int list -> float
(** Fraction (0..1) of all heap accesses that go to the given objects. *)

val lifetimes_overlap : t -> int -> int -> bool
(** Whether two objects' [alloc,free) trace intervals intersect. *)

(** {2 Online collector}

    The analysis is a single left-to-right fold, exposed so long
    streamed analyses can be checkpointed mid-pass: [feed] segments in
    order, [finish] once at the end.  [analyze_stream] is exactly
    [collector () |> feed over every segment |> finish].  The collector
    is plain data (hashtables, lists, counters) — serializable with
    [Marshal] for crash-safe resume. *)

type collector

val collector : unit -> collector

val feed : collector -> base:int -> Packed.t -> unit
(** Consume one packed segment whose first event has global index
    [base].  Segments must be fed in stream order. *)

val events_fed : collector -> int
(** Events consumed so far (the resume cursor). *)

val finish : collector -> t
