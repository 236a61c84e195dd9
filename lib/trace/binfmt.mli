(** The container vocabulary shared by the one on-disk trace format,
    the columnar v3 container of {!Columnar}.

    Three things live here:

    - the {b wire primitives}: LEB128 varints (zig-zag for signed
      values), little-endian CRC words, and a {!cursor} that reads them
      from a {!Prefix_util.Bigio.t} (a mapped file, or a copy of
      in-memory bytes);
    - the {b framed layout}: a ["PFXT"] magic and version varint
      ({!check_header}), then CRC32-checksummed ["FRME"] frames and a
      checksummed ["FEND"] totals footer.  One strict walk
      ({!walk_frames}) and one lenient walk ({!walk_frames_lenient})
      parse it; {!Columnar} passes in its payload decoder;
    - the {b v1 row encoding} ({!write}): header, event count, then one
      tag byte plus delta-coded varint fields per event.  Nothing
      decodes it.  It is the stable byte image a checkpoint's trace
      digest hashes, so its bytes must never change.

    Version 1 (rows) and version 2 (framed rows) files are refused by
    every reader: {!Columnar.read}, {!Columnar.read_lenient} and
    {!Stream.of_binary_file} report the version they found. *)

val magic : string
(** ["PFXT"]. *)

val default_frame_events : int
(** Events per frame when unspecified (65536, matching
    {!Stream.default_segment_events} so frame boundaries and stream
    segment boundaries coincide). *)

val frame_marker : string
(** ["FRME"] — starts every frame. *)

val footer_marker : string
(** ["FEND"] — starts the checksummed totals footer. *)

(** {2 Wire primitives}

    Signed varints treat the zig-zag image as a full 63-bit unsigned
    pattern — logical shifts on both sides — so min_int/max_int-scale
    deltas round-trip; the unsigned getters still reject a decoded sign
    bit as corruption ("varint overflows"). *)

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

(** {2 The v1 row encoding} *)

val write : Buffer.t -> Trace.t -> unit
(** Append the v1 encoding of the trace to a buffer.  Raises
    [Invalid_argument] on a negative size, offset, thread or
    instruction count (unsigned on this wire). *)

(** {2 The framed layout}

    The container reads its header with {!check_header} and hands its
    payload decoder to one of the two walks below;
    [payload ~frame_off ~pos ~plen ~events] decodes the CRC-verified
    [plen] bytes at [pos] of the cursor's region, which must hold
    exactly [events] events ([frame_off] is the frame marker's offset,
    for error messages). *)

val check_header : cursor -> (int, string) result
(** Check the magic and read the version varint, leaving the cursor
    just after the header.  An input shorter than the magic reports
    ["empty or truncated file (offset N)"]. *)

val walk_frames :
  cursor ->
  payload:(frame_off:int -> pos:int -> plen:int -> events:int -> (unit, string) result) ->
  (unit, string) result
(** Strict walk from the cursor to the end of its region: [Error] on the
    first bad marker, implausible or truncated frame, cumulative-count
    or CRC mismatch, payload error, footer disagreement or trailing
    byte.  Bounds are checked without overflow ([plen > len - pos]), so
    a frame claiming a [max_int]-byte payload is implausible. *)

type lost_range = { lost_from : int; lost_to : int }
(** Half-open range [\[lost_from, lost_to)] of original-stream event
    indices that could not be recovered. *)

val walk_frames_lenient :
  cursor ->
  payload:(frame_off:int -> pos:int -> plen:int -> events:int -> ('a, string) result) ->
  keep:('a -> unit) ->
  lost_range list * int * int * int option
(** Best-effort walk: a frame whose header, CRC or payload fails is
    skipped by scanning for the next marker; [keep] receives each
    recovered frame in stream order.  Every good frame carries its
    cumulative event count, so the lost ranges are exact.  Returns the
    lost ranges (ascending), the frames kept, the resynchronizations
    and the footer total ([None] without a valid footer). *)
