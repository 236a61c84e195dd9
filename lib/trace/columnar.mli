(** Columnar compressed trace container (format v3).

    Same file skeleton as the framed {!Binfmt} v2 — ["PFXT"] magic, a
    version varint, then CRC32-checksummed ["FRME"] frames and a
    checksummed ["FEND"] totals footer — but each frame's payload
    stores the events {e column by column} in the {!Packed.t} layout:
    a run-length tag index, a sorted dictionary of allocation sites,
    then one delta/zig-zag-varint (or bit-packed, for access write
    flags) column per field.  See [doc/columnar.md] for the exact
    byte layout.

    The frame machinery is shared — both containers are parsed by
    {!Binfmt.walk_frames} and {!Binfmt.walk_frames_lenient} over a
    {!Prefix_util.Bigio.t} — so crash safety (truncation is detected by
    the footer), strict rejection of corruption, and marker-resync
    lenient recovery behave exactly as for v2; and
    {!Stream.of_binary_file} cuts stream segments at frame boundaries
    for either container.

    The decoder is {e zero-copy} in the sense that no per-event value
    is ever boxed: columns decode straight into flat int arrays that
    are handed to consumers as a {!Packed.t} view, replay-ready.
    Compared with v2 this removes the per-event [Event.t] allocation
    and re-packing, and the RLE tag/thread indexes shrink the file
    (typically well under v2's 3-5 bytes/event). *)

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

val write_buffer : ?frame_events:int -> Buffer.t -> Packed.t -> unit
(** Whole-trace convenience: header, [frame_events]-sized frames,
    footer. *)

val to_bytes : ?frame_events:int -> Packed.t -> bytes

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
(** Best-effort recovery mirroring {!Binfmt.read_lenient}: corrupt
    frames are skipped by scanning for the next marker, and cumulative
    counts pin the exact lost event ranges.  [Error] only when the
    header itself is unusable. *)

val read_file_lenient : string -> (lenient, string) result
(** {!read_lenient} over the mapped file. *)

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
