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

(* Already-packed traces are segmented by array blits — the per-event
   boxing path of [create] is bypassed entirely.  A trace that fits in
   one segment is emitted as itself: no buffer, no copy. *)
let of_packed ?(segment_events = default_segment_events) packed =
  check_segment_events ~who:"Stream.of_packed" segment_events;
  let feed emit =
    let n = Packed.length packed in
    if n <= segment_events then (if n > 0 then emit packed)
    else begin
      let buf = Packed.Buf.create segment_events in
      let pos = ref 0 in
      while !pos < n do
        let len = min segment_events (n - !pos) in
        Packed.Buf.clear buf;
        Packed.Buf.blit_packed buf packed ~pos:!pos ~len;
        emit (Packed.Buf.view buf);
        pos := !pos + len
      done
    end
  in
  { segment_events; feed }

let of_text_file ?segment_events path =
  create ?segment_events (fun push ->
      match Serialize.iter_file path ~f:push with
      | Ok () -> ()
      | Error msg -> failwith (path ^ ": " ^ msg))

(* Binary files are decoded frame-aware: for framed (v2 and columnar
   v3) input the segment is flushed at every frame boundary, so
   checkpoint boundaries (= segment boundaries) coincide with the
   file's integrity-check units.  A frame larger than [segment_events]
   still flushes whenever the buffer fills, so segments never exceed
   their declared size.  The container is auto-detected from the
   header: v1/v2 take the event-at-a-time {!Binfmt} decoder, v3 the
   columnar one — whole decoded frames are blitted into the segment
   buffer, never boxed per event. *)
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
    let buf = Lazy.force buf in
    Packed.Buf.clear buf;
    let flush () =
      if Packed.Buf.length buf > 0 then begin
        emit (Packed.Buf.view buf);
        Packed.Buf.clear buf
      end
    in
    let on_columnar_frame frame =
      let n = Packed.length frame in
      if n <= segment_events && Packed.Buf.length buf = 0 then
        (* Whole frame fits in one segment: hand the decoder's
           packed view straight through — no copy.  Like every
           emitted segment it is only valid for the duration of
           the callback. *)
        emit frame
      else begin
        let pos = ref 0 in
        while !pos < n do
          let room = segment_events - Packed.Buf.length buf in
          let len = min room (n - !pos) in
          Packed.Buf.blit_packed buf frame ~pos:!pos ~len;
          pos := !pos + len;
          if Packed.Buf.is_full buf then flush ()
        done;
        flush ()
      end
    in
    let on_event e =
      Packed.Buf.add buf e;
      if Packed.Buf.is_full buf then flush ()
    in
    let big = Lazy.force big in
    let columnar =
      match Binfmt.big_version big with
      | Ok v -> v = Columnar.version_columnar
      | Error msg -> failwith (path ^ ": " ^ msg)
    in
    let result =
      if columnar then
        Columnar.iter_big ~decoder:(Lazy.force decoder) big ~f:on_columnar_frame
      else Binfmt.iter_big big ~on_frame:flush ~f:on_event
    in
    match result with
    | Ok () -> flush ()
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  { segment_events; feed }

(* ---- prefetch pipelining --------------------------------------------- *)

exception Consumer_abort

(* Decode ahead of replay: a producer (spawned per pass) runs the
   underlying stream and copies each segment into one of two hand-off
   buffers — the double-buffered decoder scratch — while the consumer
   replays the other.  Classic bounded buffer of depth 2: the producer
   is at most one segment ahead, so memory stays O(2·segment_events)
   and the emitted segment sequence is exactly the underlying one
   (same order, same contents, same boundaries — byte-identical
   reports downstream).  Segments obey the usual contract: valid only
   for the duration of the callback. *)
let prefetched ?spawn t =
  let spawn =
    match spawn with
    | Some s -> s
    | None -> fun f -> let d = Domain.spawn f in fun () -> Domain.join d
  in
  let segment_events = t.segment_events in
  let feed emit =
    let bufs =
      [| Packed.Buf.create segment_events; Packed.Buf.create segment_events |]
    in
    let full = [| false; false |] in
    let finished = ref false in
    let aborted = ref false in
    let perr = ref None in
    let mu = Mutex.create () in
    let cond = Condition.create () in
    let producer () =
      (try
         let slot = ref 0 in
         t.feed (fun seg ->
             let s = !slot in
             Mutex.lock mu;
             while full.(s) && not !aborted do
               Condition.wait cond mu
             done;
             let ab = !aborted in
             Mutex.unlock mu;
             if ab then raise Consumer_abort;
             let b = bufs.(s) in
             Packed.Buf.clear b;
             Packed.Buf.blit_packed b seg ~pos:0 ~len:(Packed.length seg);
             Mutex.lock mu;
             full.(s) <- true;
             Condition.broadcast cond;
             Mutex.unlock mu;
             slot := 1 - s)
       with
      | Consumer_abort -> ()
      | e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock mu;
        perr := Some (e, bt);
        Mutex.unlock mu);
      Mutex.lock mu;
      finished := true;
      Condition.broadcast cond;
      Mutex.unlock mu
    in
    let join = spawn producer in
    (* Consumer drains slots in the same alternating order the producer
       fills them, so the next undelivered segment is always at [slot]. *)
    (try
       let slot = ref 0 in
       let continue = ref true in
       while !continue do
         let s = !slot in
         Mutex.lock mu;
         while (not full.(s)) && not !finished do
           Condition.wait cond mu
         done;
         let has = full.(s) in
         Mutex.unlock mu;
         if has then begin
           emit (Packed.Buf.view bufs.(s));
           Mutex.lock mu;
           full.(s) <- false;
           Condition.broadcast cond;
           Mutex.unlock mu;
           slot := 1 - s
         end
         else continue := false
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock mu;
       aborted := true;
       Condition.broadcast cond;
       Mutex.unlock mu;
       join ();
       Printexc.raise_with_backtrace e bt);
    join ();
    match !perr with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
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

let to_packed t = Packed.of_trace (to_trace t)
