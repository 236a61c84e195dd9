(* Streaming, bounded-memory traces.

   A [Stream.t] represents an event stream as a generator of fixed-size
   packed segments instead of one giant array: consumers fold over
   segments (each a {!Packed.t} view into a single reused buffer), so a
   pass over a trace of any length holds O(segment_events) trace memory.
   Streams are re-iterable — every iteration re-runs the underlying
   generator, which is deterministic for every source below. *)

type t = {
  segment_events : int;
  feed : (Packed.t -> unit) -> unit;
      (** push-based segment generator; re-run on every iteration.
          Emitted segments share one reused buffer and are only valid
          for the duration of the callback. *)
}

let default_segment_events = 1 lsl 16

let check_segment_events ~who n =
  if n <= 0 then invalid_arg (who ^ ": segment_events must be positive")

let create ?(segment_events = default_segment_events) gen =
  check_segment_events ~who:"Stream.create" segment_events;
  let feed emit =
    let buf = Packed.Buf.create segment_events in
    let flush () =
      if Packed.Buf.length buf > 0 then begin
        emit (Packed.Buf.view buf);
        Packed.Buf.clear buf
      end
    in
    gen (fun e ->
        Packed.Buf.add buf e;
        if Packed.Buf.is_full buf then flush ());
    flush ()
  in
  { segment_events; feed }

let segment_events t = t.segment_events

let iter_segments t f =
  let base = ref 0 in
  t.feed (fun seg ->
      f ~base:!base seg;
      base := !base + Packed.length seg)

let length t =
  let n = ref 0 in
  iter_segments t (fun ~base:_ seg -> n := !n + Packed.length seg);
  !n

(* ---- sources --------------------------------------------------------- *)

let of_trace ?segment_events trace =
  create ?segment_events (fun push -> Trace.iter push trace)

(* Emit [p] as segments of at most [segment_events] events: itself when
   it fits (no buffer, no copy), else consecutive slices blitted into
   [buf]. *)
let emit_sliced ~segment_events buf p emit =
  let n = Packed.length p in
  if n <= segment_events then (if n > 0 then emit p)
  else begin
    let buf = Lazy.force buf in
    let pos = ref 0 in
    while !pos < n do
      let len = min segment_events (n - !pos) in
      Packed.Buf.clear buf;
      Packed.Buf.blit_packed buf p ~pos:!pos ~len;
      emit (Packed.Buf.view buf);
      pos := !pos + len
    done
  end

(* Already-packed traces are segmented by array blits — the per-event
   boxing path of [create] is bypassed entirely. *)
let of_packed ?(segment_events = default_segment_events) packed =
  check_segment_events ~who:"Stream.of_packed" segment_events;
  let feed emit =
    emit_sliced ~segment_events (lazy (Packed.Buf.create segment_events)) packed emit
  in
  { segment_events; feed }

(* Every decoded frame is emitted through [emit_sliced], so each frame
   boundary is a segment boundary: checkpoint boundaries (= segment
   boundaries) coincide with the file's integrity-check units, and a
   frame larger than [segment_events] is sliced.  A frame that fits is
   the decoder's packed view itself, never copied or boxed per event;
   like every emitted segment it is only valid during the callback. *)
let of_binary_file ?(segment_events = default_segment_events) path =
  check_segment_events ~who:"Stream.of_binary_file" segment_events;
  (* The segment buffer, frame-decode scratch and file mapping are
     cached on the stream value and shared by successive passes
     (scratch is fully rewritten on each one), so re-iteration costs no
     re-allocation and no re-mapping.  Like the buffer reuse itself,
     this assumes one iteration of a given [t] at a time — iterate a
     fresh stream per domain. *)
  let buf = lazy (Packed.Buf.create segment_events) in
  let decoder = lazy (Columnar.decoder_create ()) in
  let big = lazy (Prefix_util.Bigio.load path) in
  let feed emit =
    match
      Columnar.iter_big ~decoder:(Lazy.force decoder) (Lazy.force big) ~f:(fun frame ->
          emit_sliced ~segment_events buf frame emit)
    with
    | Ok () -> ()
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  { segment_events; feed }

(* ---- sinks ----------------------------------------------------------- *)

(* One frame per stream segment (sliced when a segment exceeds
   [frame_events]), so segment boundaries survive a spool-to-file
   round trip. *)
let to_columnar_file ?frame_events t path =
  Prefix_util.Fsio.atomic_write path (fun buf ->
      let w = Columnar.Writer.create ?frame_events buf in
      iter_segments t (fun ~base:_ seg -> Columnar.Writer.add_segment w seg);
      Columnar.Writer.finish w)

let to_trace t =
  let trace = Trace.create () in
  iter_segments t (fun ~base:_ seg ->
      for i = 0 to Packed.length seg - 1 do
        Trace.add trace (Packed.get seg i)
      done);
  trace
