(** Columnar compressed trace container (format v3) — the one on-disk
    trace format.

    ["PFXT"] magic and a version varint, then CRC32-checksummed
    ["FRME"] frames and a checksummed ["FEND"] totals footer, parsed by
    {!Binfmt.walk_frames} and {!Binfmt.walk_frames_lenient} over a
    {!Prefix_util.Bigio.t}: truncation is detected by the footer, the
    strict reader rejects any corruption, and the lenient reader skips
    a bad frame by resynchronizing on the next marker.
    {!Stream.of_binary_file} cuts stream segments at frame boundaries.
    Each frame's payload stores its events {e column by column} in the
    {!Packed.t} layout: a run-length tag index, a sorted dictionary of
    allocation sites, then one delta/zig-zag-varint (or bit-packed, for
    access write flags) column per field.  See [doc/columnar.md] for
    the exact byte layout.

    The decoder is {e zero-copy} in the sense that no per-event value
    is ever boxed: columns decode straight into flat int arrays that
    are handed to consumers as a {!Packed.t} view, replay-ready.

    Every reader refuses any other version, naming it: the v1 row
    encoding of {!Binfmt.write} and the framed-row v2 files of older
    releases read as ["unsupported version N (columnar is 3)"]. *)

val version_columnar : int
(** 3 — the columnar container version (shares {!Binfmt.magic}). *)

val default_frame_events : int
(** = {!Binfmt.default_frame_events} (65536). *)

(** {2 Writing} *)

(** Incremental frame writer, for spooling a segment stream to a
    container without materializing the trace ({!Stream.to_columnar_file}). *)
module Writer : sig
  type t

  val create : ?frame_events:int -> Buffer.t -> t
  (** Write the container header into [buf] and return a writer.
      Raises [Invalid_argument] when [frame_events <= 0]. *)

  val add_segment : t -> Packed.t -> unit
  (** Encode a packed segment as one frame ([frame_events]-sized slices
      when the segment is larger).  Raises [Invalid_argument] after
      {!finish}. *)

  val finish : t -> unit
  (** Write the checksummed totals footer.  Raises [Invalid_argument]
      when called twice. *)
end

val to_bytes : ?frame_events:int -> Packed.t -> bytes
(** Whole-trace encoding: header, [frame_events]-sized frames, footer. *)

val write_file : ?frame_events:int -> string -> Packed.t -> unit
(** Atomic (temp + rename, via {!Prefix_util.Fsio}) container write. *)

(** {2 Strict decode} *)

val read : bytes -> (Packed.t, string) result
(** Decode a whole container; [Error] on bad magic/version, any CRC or
    footer mismatch, and on every structural violation inside a frame
    payload (tag/thread runs that disagree with the event count, site
    indices outside the dictionary, column bytes left over or missing).
    Copies the bytes into a bigstring and runs {!iter_big}, so the
    errors are its errors.  Never raises on arbitrary input. *)

val read_file : string -> (Packed.t, string) result
(** {!read} over the mapped file; raises [Sys_error] if the file cannot
    be opened. *)

(** {2 Lenient decode} *)

type lenient = {
  cl_packed : Packed.t;  (** surviving events, in stream order *)
  cl_lost : Binfmt.lost_range list;  (** ascending, non-overlapping *)
  cl_frames_ok : int;
  cl_frames_skipped : int;  (** resynchronization count *)
  cl_total_events : int option;
      (** footer total when a valid footer survived; [None] means the
          tail loss is unknowable *)
}

val read_lenient : bytes -> (lenient, string) result
(** Best-effort recovery: corrupt frames are skipped by scanning for
    the next marker, and cumulative counts pin the exact lost event
    ranges.  [Error] only when the header itself is unusable (missing
    magic, or a version other than 3).  Callers typically hand
    [Packed.to_trace cl_packed] to {!Sanitizer.sanitize} to repair the
    dangling frees/accesses the lost ranges leave behind. *)

val lenient_events_lost : lenient -> int

(** {2 Streaming decode} *)

type decoder
(** Reusable frame-decode scratch (column arrays, run/dictionary
    tables), resized geometrically — a streaming pass allocates
    O(largest frame) total. *)

val decoder_create : unit -> decoder

val iter_big :
  ?decoder:decoder -> Prefix_util.Bigio.t -> f:(Packed.t -> unit) ->
  (unit, string) result
(** Strict frame-at-a-time walk over a mapped container
    ({!Prefix_util.Bigio}): markers, CRCs and column bytes all read
    straight from the mapping, no payload copy.  [f] receives each frame
    as a packed view {e sharing the decoder scratch} — valid only for
    the duration of the call, never to be retained.  Same errors as
    {!read}. *)
