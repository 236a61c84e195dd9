(** Compact binary trace format.

    Profiling traces run to millions of events; the text format of
    {!Serialize} is convenient but ~16 bytes/event.  This format uses a
    one-byte tag plus LEB128 varints with per-field delta encoding
    (object ids and sites are strongly local), typically 3-5 bytes per
    event.  The format is self-describing: a 4-byte magic, a format
    version, then the event stream.

    Encoding details (little-endian varints, zig-zag for deltas):
    - tag 0: Alloc  (Δobj, Δsite, Δctx, size, thread)
    - tag 1: load   (Δobj, offset, thread)
    - tag 2: store  (Δobj, offset, thread)
    - tag 3: Free   (Δobj, thread)
    - tag 4: Realloc (Δobj, new_size, thread)
    - tag 5: Compute (instrs, thread)

    {b Format v1} is the legacy layout: header, total event count, then
    one undelimited event stream — a single flipped byte makes
    everything after it undecodable.

    {b Format v2} (framed) chunks the stream into length-prefixed
    frames, each carrying its own event count, the cumulative event
    count before it, and a CRC32 of its payload; the delta state resets
    at each frame so frames decode independently.  A checksummed footer
    records the frame/event totals, making truncation detectable.  The
    strict readers reject any corruption; {!read_lenient} skips corrupt
    frames (resynchronizing on the frame marker) and reports exactly
    which event ranges were lost.

    {b One decoder.}  Every version — v1, v2 and the columnar v3 of
    {!Columnar} — is decoded from a {!Prefix_util.Bigio.t} (a mapped
    file, or a copy of in-memory bytes) through one {!cursor}.  The
    framed layout of v2 and v3 is parsed by one strict walk
    ({!walk_frames}) and one lenient walk ({!walk_frames_lenient});
    each format passes in its payload decoder.  {!read} and
    {!read_lenient} are thin wrappers over the same decoder, so they
    report exactly the streaming decoder's errors. *)

val magic : string
(** ["PFXT"]. *)

val version : int
(** 1 — the legacy unframed format, still written by {!write} and
    always readable. *)

val version_framed : int
(** 2 — the framed, checksummed format of {!write_framed}. *)

val default_frame_events : int
(** Events per frame when unspecified (65536, matching
    {!Stream.default_segment_events} so frame boundaries and stream
    segment boundaries coincide). *)

val frame_marker : string
(** ["FRME"] — starts every frame of a framed container (v2 and the
    columnar v3 of {!Columnar}). *)

val footer_marker : string
(** ["FEND"] — starts the checksummed totals footer. *)

(** {2 Wire primitives}

    The LEB128/zig-zag vocabulary shared by every container version
    (and by {!Columnar}'s per-column encodings).  Signed varints treat
    the zig-zag image as a full 63-bit unsigned pattern — logical
    shifts on both sides — so min_int/max_int-scale deltas round-trip;
    the unsigned getters still reject a decoded sign bit as corruption
    ("varint overflows"). *)

val put_uvarint : Buffer.t -> int -> unit
(** Append an unsigned LEB128 varint.  Raises [Invalid_argument] on a
    negative argument. *)

val put_varint : Buffer.t -> int -> unit
(** Append a signed (zig-zag) varint; total for all of [int]. *)

val put_u32le : Buffer.t -> int -> unit
(** Append a 32-bit little-endian word (checksums). *)

type cursor = { big : Prefix_util.Bigio.t; mutable pos : int; limit : int }
(** A decode position inside a byte region: getters read [big] from
    [pos] (advancing it) and never past [limit]. *)

val cursor : Prefix_util.Bigio.t -> cursor
(** A cursor over the whole region, at offset 0. *)

val get_uvarint : cursor -> (int, string) result
(** Decode an unsigned varint; [Error] on truncation, a value beyond 9
    bytes, or a set sign bit. *)

val get_varint : cursor -> (int, string) result
(** Decode a signed (zig-zag) varint; the sign bit is a legal payload
    bit here, so the whole [int] range round-trips. *)

val get_u32le : cursor -> (int, string) result

val write : Buffer.t -> Trace.t -> unit
(** Append the v1 encoding of the trace to a buffer. *)

val to_bytes : Trace.t -> bytes

val write_framed : ?frame_events:int -> Buffer.t -> Trace.t -> unit
(** Append the framed (v2) encoding.  Raises [Invalid_argument] when
    [frame_events <= 0]. *)

val to_bytes_framed : ?frame_events:int -> Trace.t -> bytes

val read : bytes -> (Trace.t, string) result
(** Decode either format version; [Error] on bad magic, version,
    truncation, malformed varints, or (v2) any CRC/footer mismatch —
    with exactly {!iter_big}'s message, since it copies the bytes into a
    bigstring and runs that decoder.  An input shorter than the magic
    reports ["empty or truncated file (offset N)"]. *)

val write_file : string -> Trace.t -> unit
(** v1 file writer (kept for compatibility). *)

val write_file_framed : ?frame_events:int -> string -> Trace.t -> unit
(** Framed (v2) file writer; the file is written via temp + atomic
    rename so a crash never leaves a truncated trace behind. *)

val read_file : string -> (Trace.t, string) result
(** {!read} over the mapped file ({!Prefix_util.Bigio.load}); raises
    [Sys_error] if the file cannot be opened. *)

(** {2 Lenient framed decode} *)

type lost_range = { lost_from : int; lost_to : int }
(** Half-open range [\[lost_from, lost_to)] of original-stream event
    indices that could not be recovered. *)

type lenient = {
  lr_trace : Trace.t;  (** surviving events, in stream order *)
  lr_lost : lost_range list;  (** ascending, non-overlapping *)
  lr_frames_ok : int;
  lr_frames_skipped : int;  (** resynchronization count *)
  lr_total_events : int option;
      (** footer total when a valid footer was found; [None] means the
          file is truncated and the tail loss is unknowable *)
}

val read_lenient : bytes -> (lenient, string) result
(** Best-effort decode of a framed (v2) file: corrupt frames are
    skipped by scanning for the next frame marker, and each good
    frame's cumulative event count pins exactly which event ranges were
    lost.  [Error] only when the header itself is unusable (missing
    magic, not v2).  Callers typically hand [lr_trace] to
    {!Sanitizer.sanitize} to repair the dangling frees/accesses the
    lost ranges leave behind. *)

val read_file_lenient : string -> (lenient, string) result
(** {!read_lenient} over the mapped file. *)

val lenient_events_lost : lenient -> int
(** Total events in [lr_lost]. *)

val pp_lost_range : Format.formatter -> lost_range -> unit

(** {2 Streaming decode} *)

val iter_big :
  ?on_frame:(unit -> unit) -> Prefix_util.Bigio.t -> f:(Event.t -> unit) ->
  (unit, string) result
(** Strict v1/v2 decode over a mapped container: [f] is called once per
    event, no trace is materialized.  Stops at the first corruption;
    an input shorter than the magic reports
    ["empty or truncated file (offset N)"].  For v2 input [on_frame]
    fires after each frame's events (never for v1) — the streaming
    engine uses it to cut segments exactly at frame boundaries. *)

val big_version : Prefix_util.Bigio.t -> (int, string) result
(** Sniff a container's version (magic + version varint only): 1/2 are
    the formats decoded here, {!Columnar.version_columnar} is the
    columnar container.  [Error] on bad magic or truncation. *)

(** {2 The framed layout}

    What v2 and v3 share: ["FRME"] frames (event count, cumulative
    count, payload length, CRC32 of the payload) and the checksummed
    ["FEND"] footer.  Each format's decoder reads its header with
    {!check_header} and hands its payload decoder to one of the two
    walks below; [payload ~frame_off ~pos ~plen ~events] decodes the
    CRC-verified [plen] bytes at [pos] of the cursor's region, which
    must hold exactly [events] events ([frame_off] is the frame
    marker's offset, for error messages). *)

val check_header : cursor -> (int, string) result
(** Check the magic and read the version varint, leaving the cursor
    just after the header. *)

val walk_frames :
  cursor ->
  payload:(frame_off:int -> pos:int -> plen:int -> events:int -> (unit, string) result) ->
  (unit, string) result
(** Strict walk from the cursor to the end of its region: [Error] on the
    first bad marker, implausible or truncated frame, cumulative-count
    or CRC mismatch, payload error, footer disagreement or trailing
    byte. *)

val walk_frames_lenient :
  cursor ->
  payload:(frame_off:int -> pos:int -> plen:int -> events:int -> ('a, string) result) ->
  keep:('a -> unit) ->
  lost_range list * int * int * int option
(** Best-effort walk: a frame whose header, CRC or payload fails is
    skipped by scanning for the next marker; [keep] receives each
    recovered frame in stream order.  Returns the lost ranges
    (ascending), the frames kept, the resynchronizations and the footer
    total ([None] without a valid footer). *)
