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

val of_text_file : ?segment_events:int -> string -> t
(** Streams the textual format line by line ({!Serialize}); never holds
    more than one segment of decoded events.  Iterating raises
    [Failure "<path>: line N: ..."] on a malformed line and [Sys_error]
    if the file cannot be opened (checked on each pass). *)

val of_binary_file : ?segment_events:int -> string -> t
(** Streams a binary trace file through a fixed refill buffer,
    auto-detecting the container from the header: Binfmt v1/v2 decode
    event-at-a-time, the columnar v3 container decodes whole frames
    into flat columns and blits them in — no per-event boxing
    ({!Columnar}).  For framed input (v2 and v3) a segment is cut at
    every frame boundary (and whenever the buffer fills), so stream
    segment boundaries — and therefore checkpoint boundaries —
    coincide with the file's integrity-check units.

    The file is mapped once ({!Prefix_util.Bigio.load}) on the first
    pass and decoded straight from the mapping, with no payload copies;
    re-iteration costs no re-read.  A file that cannot be mapped is
    read into memory instead.

    Iterating raises [Failure] on corruption, [Sys_error] on open
    failure. *)

val prefetched : ?spawn:((unit -> unit) -> unit -> unit) -> t -> t
(** [prefetched t] overlaps decode with consumption: each pass spawns
    a producer that runs [t]'s generator one segment ahead, handing
    segments over through two alternating buffers (double-buffered
    scratch), so segment N+1 decodes while segment N is being
    consumed.  The emitted segment sequence is exactly [t]'s — same
    order, contents and boundaries — so downstream reports are
    byte-identical; memory is bounded by two extra segments.  [spawn]
    overrides how the producer is started (e.g. on a
    {!Prefix_parallel.Pool} worker via [Pool.submit]); it must run its
    argument exactly once, possibly concurrently, and the returned
    thunk must join it.  Defaults to [Domain.spawn]/[Domain.join].
    Consumer exceptions abort the producer and re-raise; producer
    exceptions (e.g. decode [Failure]) re-raise at the consumer after
    the handed-over segments are drained. *)

val to_columnar_file : ?frame_events:int -> t -> string -> unit
(** Spool the stream into a columnar (v3) container, one frame per
    segment (atomic write).  [of_binary_file] on the result replays
    the same segments. *)

(** {1 Sinks (materialize — for tests and small traces)} *)

val to_trace : t -> Trace.t

val to_packed : t -> Packed.t
