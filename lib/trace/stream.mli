(** Streaming, bounded-memory traces.

    A stream represents an event source as a generator of fixed-size
    packed segments ({!Packed.t} chunks filled from one reused
    {!Packed.Buf}) instead of a single materialized array, so a pass
    over a trace of any length holds O([segment_events]) trace memory.

    Streams are {e re-iterable}: every {!iter_segments} (or derived
    consumer) re-runs the underlying generator from the start.  All
    the sources below are deterministic, so repeated passes observe
    identical events. *)

type t

val default_segment_events : int
(** 65536 events per segment. *)

val create : ?segment_events:int -> ((Event.t -> unit) -> unit) -> t
(** [create gen] wraps a push-based event generator: each iteration
    calls [gen push] and [gen] must call [push] once per event, in
    order.  Raises [Invalid_argument] when [segment_events <= 0]. *)

val segment_events : t -> int

val iter_segments : t -> (base:int -> Packed.t -> unit) -> unit
(** One pass: the callback receives each segment together with the
    global index of its first event ([base]).  Segments share one
    reused buffer — they are valid only for the duration of the
    callback and must not be retained. *)

val length : t -> int
(** Total event count; consumes one full pass. *)

(** {1 Sources} *)

val of_trace : ?segment_events:int -> Trace.t -> t

val of_packed : ?segment_events:int -> Packed.t -> t
(** Segments are produced by array blits from the packed trace — no
    per-event boxing.  A trace of at most [segment_events] events is
    emitted as itself (one segment, physically the argument), so a
    one-segment stream replays straight off the packed arrays. *)

val of_binary_file : ?segment_events:int -> string -> t
(** Streams a columnar (v3) container ({!Columnar}): whole frames decode
    into flat columns and are handed on as segments — no per-event
    boxing.  A segment is cut at every frame boundary (and whenever the
    segment buffer fills), so stream segment boundaries — and therefore
    checkpoint boundaries — coincide with the file's integrity-check
    units.

    The file is mapped once ({!Prefix_util.Bigio.load}) on the first
    pass and decoded straight from the mapping, with no payload copies;
    re-iteration costs no re-read.  A file that cannot be mapped is
    read into memory instead.

    Iterating raises [Failure "<path>: <reason>"] on corruption and on
    any other container version (["unsupported version 1 (columnar is
    3)"] for a v1 or v2 file), [Sys_error] on open failure. *)

val to_columnar_file : ?frame_events:int -> t -> string -> unit
(** Spool the stream into a columnar (v3) container, one frame per
    segment (atomic write).  [of_binary_file] on the result replays
    the same segments. *)

(** {1 Sinks} *)

val to_trace : t -> Trace.t
(** Materialize the stream as a boxed trace — for tests, small traces
    and the boxed replay oracle.  Replays need no sink: they consume
    the stream itself. *)
