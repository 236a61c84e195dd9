module Crc32 = Prefix_util.Crc32
module Bigio = Prefix_util.Bigio

let magic = "PFXT"
let version = 1
let version_framed = 2
let frame_marker = "FRME"
let footer_marker = "FEND"
let default_frame_events = 1 lsl 16

(* --- varints --- *)

(* Encode [n] as an unsigned LEB128 varint, treating the full 63-bit
   pattern as unsigned: the logical shift makes the loop terminate even
   when bit 62 (OCaml's sign bit) is set, which zigzag produces for
   |n| >= 2^61.  At most 9 bytes (ceil 63/7). *)
let put_uvarint63 buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_uvarint buf n =
  if n < 0 then invalid_arg "Binfmt: negative unsigned varint";
  put_uvarint63 buf n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let put_varint buf n = put_uvarint63 buf (zigzag n)

let put_u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

(* A decode position inside a byte region, bounded by [limit]: every
   container version is decoded through one, over the mapped file or
   over a copy of in-memory bytes ({!Bigio.of_bytes}). *)
type cursor = { big : Bigio.t; mutable pos : int; limit : int }

let cursor big = { big; pos = 0; limit = Bigio.length big }

(* Decode the full-63-bit companion of {!put_uvarint63}: the sign bit is
   a legal payload bit here (zigzag of a min_int-scale delta), so only
   length is bounded (9 bytes carry exactly 63 bits). *)
let get_uvarint63 c =
  let rec go shift acc =
    if c.pos >= c.limit then Error "truncated varint"
    else begin
      let b = Char.code (Bigio.unsafe_get c.big c.pos) in
      c.pos <- c.pos + 1;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Ok acc
      else if shift > 56 then Error "varint too long"
      else go (shift + 7) acc
    end
  in
  go 0 0

let get_uvarint c =
  match get_uvarint63 c with
  | Ok acc when acc < 0 ->
    (* High continuation bytes can shift into the sign bit on corrupted
       input; an unsigned varint is never negative. *)
    Error "varint overflows"
  | r -> r

let get_varint c = Result.map unzigzag (get_uvarint63 c)

let get_u32le c =
  if c.pos + 4 > c.limit then Error "truncated checksum"
  else begin
    let b i = Char.code (Bigio.unsafe_get c.big (c.pos + i)) in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    c.pos <- c.pos + 4;
    Ok v
  end

(* --- encoding --- *)

type state = { mutable obj : int; mutable site : int; mutable ctx : int }

let fresh_state () = { obj = 0; site = 0; ctx = 0 }

let reset_state st =
  st.obj <- 0;
  st.site <- 0;
  st.ctx <- 0

let encode_event buf st (e : Event.t) =
  match e with
  | Alloc { obj; site; ctx; size; thread } ->
    Buffer.add_char buf '\000';
    put_varint buf (obj - st.obj);
    put_varint buf (site - st.site);
    put_varint buf (ctx - st.ctx);
    put_uvarint buf size;
    put_uvarint buf thread;
    st.obj <- obj;
    st.site <- site;
    st.ctx <- ctx
  | Access { obj; offset; write; thread } ->
    Buffer.add_char buf (if write then '\002' else '\001');
    put_varint buf (obj - st.obj);
    put_uvarint buf offset;
    put_uvarint buf thread;
    st.obj <- obj
  | Free { obj; thread } ->
    Buffer.add_char buf '\003';
    put_varint buf (obj - st.obj);
    put_uvarint buf thread;
    st.obj <- obj
  | Realloc { obj; new_size; thread } ->
    Buffer.add_char buf '\004';
    put_varint buf (obj - st.obj);
    put_uvarint buf new_size;
    put_uvarint buf thread;
    st.obj <- obj
  | Compute { instrs; thread } ->
    Buffer.add_char buf '\005';
    put_uvarint buf instrs;
    put_uvarint buf thread

let write buf trace =
  Buffer.add_string buf magic;
  put_uvarint buf version;
  put_uvarint buf (Trace.length trace);
  let st = fresh_state () in
  Trace.iter (fun e -> encode_event buf st e) trace

let to_bytes trace =
  let buf = Buffer.create (Trace.length trace * 5) in
  write buf trace;
  Buffer.to_bytes buf

(* --- framed encoding (format v2) --------------------------------------

   The event stream is chunked into frames of [frame_events] events.
   Each frame carries its own event count, the cumulative event count
   before it, the payload length and a CRC32 of the payload; the delta
   state resets at every frame boundary so frames decode independently
   (which is what lets the lenient reader resynchronize past a corrupt
   frame without poisoning the rest of the stream).  A footer with
   frame/event totals (itself checksummed) makes truncation
   detectable. *)

let write_framed ?(frame_events = default_frame_events) buf trace =
  if frame_events <= 0 then
    invalid_arg "Binfmt.write_framed: frame_events must be positive";
  Buffer.add_string buf magic;
  put_uvarint buf version_framed;
  let payload = Buffer.create (min (Trace.length trace) frame_events * 5) in
  let st = fresh_state () in
  let in_frame = ref 0 in
  let cum = ref 0 in
  let frames = ref 0 in
  let flush () =
    if !in_frame > 0 then begin
      Buffer.add_string buf frame_marker;
      put_uvarint buf !in_frame;
      put_uvarint buf !cum;
      put_uvarint buf (Buffer.length payload);
      put_u32le buf (Crc32.string (Buffer.contents payload));
      Buffer.add_buffer buf payload;
      cum := !cum + !in_frame;
      incr frames;
      in_frame := 0;
      Buffer.clear payload;
      reset_state st
    end
  in
  Trace.iter
    (fun e ->
      encode_event payload st e;
      incr in_frame;
      if !in_frame = frame_events then flush ())
    trace;
  flush ();
  let fb = Buffer.create 16 in
  put_uvarint fb !frames;
  put_uvarint fb !cum;
  Buffer.add_string buf footer_marker;
  Buffer.add_buffer buf fb;
  put_u32le buf (Crc32.string (Buffer.contents fb))

let to_bytes_framed ?frame_events trace =
  let buf = Buffer.create (Trace.length trace * 5) in
  write_framed ?frame_events buf trace;
  Buffer.to_bytes buf

(* --- decoding --------------------------------------------------------- *)

(* [base] is subtracted from offsets in error strings so v2 payload
   errors report payload-relative positions; v1 passes [base = 0]
   (absolute offsets). *)
let decode_event_big c ~base st =
  let ( let* ) = Result.bind in
  if c.pos >= c.limit then Error "truncated stream"
  else begin
    let tag = Char.code (Bigio.unsafe_get c.big c.pos) in
    c.pos <- c.pos + 1;
    match tag with
    | 0 ->
      let* dobj = get_varint c in
      let* dsite = get_varint c in
      let* dctx = get_varint c in
      let* size = get_uvarint c in
      let* thread = get_uvarint c in
      st.obj <- st.obj + dobj;
      st.site <- st.site + dsite;
      st.ctx <- st.ctx + dctx;
      Ok (Event.Alloc { obj = st.obj; site = st.site; ctx = st.ctx; size; thread })
    | 1 | 2 ->
      let* dobj = get_varint c in
      let* offset = get_uvarint c in
      let* thread = get_uvarint c in
      st.obj <- st.obj + dobj;
      Ok (Event.Access { obj = st.obj; offset; write = tag = 2; thread })
    | 3 ->
      let* dobj = get_varint c in
      let* thread = get_uvarint c in
      st.obj <- st.obj + dobj;
      Ok (Event.Free { obj = st.obj; thread })
    | 4 ->
      let* dobj = get_varint c in
      let* new_size = get_uvarint c in
      let* thread = get_uvarint c in
      st.obj <- st.obj + dobj;
      Ok (Event.Realloc { obj = st.obj; new_size; thread })
    | 5 ->
      let* instrs = get_uvarint c in
      let* thread = get_uvarint c in
      Ok (Event.Compute { instrs; thread })
    | t -> Error (Printf.sprintf "unknown tag %d at offset %d" t (c.pos - 1 - base))
  end

let iter_big_v1 c ~f =
  let ( let* ) = Result.bind in
  let* count = get_uvarint c in
  (* Every encoded event occupies at least one byte; a count beyond the
     remaining bytes is a corrupted header. *)
  let* () =
    if count > c.limit - c.pos then
      Error
        (Printf.sprintf "implausible event count %d for %d payload bytes" count
           (c.limit - c.pos))
    else Ok ()
  in
  let st = fresh_state () in
  let rec events remaining =
    if remaining = 0 then Ok ()
    else
      let* e = decode_event_big c ~base:0 st in
      f e;
      events (remaining - 1)
  in
  events count

(* One v2 payload: exactly [events] events filling the [plen] bytes at
   [pos], delta state fresh. *)
let decode_frame_events big ~frame_off ~pos ~plen ~events ~f =
  let ( let* ) = Result.bind in
  let pc = { big; pos; limit = pos + plen } in
  let st = fresh_state () in
  let rec loop n =
    if n = 0 then
      if pc.pos = pc.limit then Ok ()
      else Error (Printf.sprintf "frame payload length mismatch at offset %d" frame_off)
    else
      let* e = decode_event_big pc ~base:pos st in
      f e;
      loop (n - 1)
  in
  loop events

(* --- the framed layout: one strict walk, one lenient walk -------------

   v2 and the columnar v3 of {!Columnar} share everything outside a
   frame's payload: "FRME" frames (event count, cumulative count,
   payload length, CRC32 of the payload), then the checksummed "FEND"
   footer.  Both walks below parse that layout and hand each
   CRC-verified payload to the format's own decoder. *)

let walk_frames c ~payload =
  let ( let* ) = Result.bind in
  let len = c.limit in
  let decoded = ref 0 in
  let frames = ref 0 in
  let rec loop () =
    if c.pos + 4 > len then
      Error (Printf.sprintf "truncated file (missing footer) at offset %d" len)
    else begin
      let marker = Bigio.sub_string c.big ~pos:c.pos ~len:4 in
      c.pos <- c.pos + 4;
      if marker = frame_marker then begin
        let frame_off = c.pos - 4 in
        let* events = get_uvarint c in
        let* cum = get_uvarint c in
        let* plen = get_uvarint c in
        let* () =
          if plen > len - c.pos then
            Error
              (Printf.sprintf "implausible frame payload length %d at offset %d" plen
                 frame_off)
          else Ok ()
        in
        let* () =
          (* Every event contributes at least one payload byte. *)
          if events > plen then
            Error
              (Printf.sprintf "implausible event count %d for %d payload bytes" events
                 plen)
          else Ok ()
        in
        let* () =
          if cum <> !decoded then
            Error
              (Printf.sprintf
                 "frame at offset %d claims cumulative count %d but %d events decoded"
                 frame_off cum !decoded)
          else Ok ()
        in
        let* crc = get_u32le c in
        let* () =
          if plen > len - c.pos then
            Error (Printf.sprintf "truncated frame payload at offset %d" frame_off)
          else Ok ()
        in
        let* () =
          if Crc32.sub_big c.big ~pos:c.pos ~len:plen <> crc then
            Error (Printf.sprintf "frame CRC mismatch at offset %d" frame_off)
          else Ok ()
        in
        let* () = payload ~frame_off ~pos:c.pos ~plen ~events in
        c.pos <- c.pos + plen;
        decoded := !decoded + events;
        incr frames;
        loop ()
      end
      else if marker = footer_marker then begin
        let fstart = c.pos in
        let* nframes = get_uvarint c in
        let* nevents = get_uvarint c in
        let fend = c.pos in
        let* crc = get_u32le c in
        let* () =
          if Crc32.sub_big c.big ~pos:fstart ~len:(fend - fstart) <> crc then
            Error "footer CRC mismatch"
          else Ok ()
        in
        let* () =
          if nframes <> !frames || nevents <> !decoded then
            Error
              (Printf.sprintf
                 "footer totals (%d frames, %d events) disagree with stream (%d frames, \
                  %d events)"
                 nframes nevents !frames !decoded)
          else Ok ()
        in
        if c.pos <> len then
          Error (Printf.sprintf "trailing bytes after footer at offset %d" c.pos)
        else Ok ()
      end
      else Error (Printf.sprintf "bad frame marker at offset %d" (c.pos - 4))
    end
  in
  loop ()

type lost_range = { lost_from : int; lost_to : int }

(* Best-effort recovery: a corrupt frame is skipped by resynchronizing
   on the next frame/footer marker, and because every good frame
   carries its cumulative event count, the exact ranges of lost events
   are known.  A frame is kept only once its whole payload decodes. *)
let walk_frames_lenient c ~payload ~keep =
  let ( let* ) = Result.bind in
  let big = c.big and len = c.limit in
  let lost = ref [] in
  let orig = ref 0 in (* original-stream event index accounted for so far *)
  let ok_frames = ref 0 in
  let skipped = ref 0 in
  let total = ref None in
  let add_lost a b = if b > a then lost := { lost_from = a; lost_to = b } :: !lost in
  let marker_at p =
    p + 4 <= len
    && (let m = Bigio.sub_string big ~pos:p ~len:4 in
        m = frame_marker || m = footer_marker)
  in
  (* Resync: scan byte-by-byte for the next plausible marker. *)
  let rec scan p = if p + 4 > len then len else if marker_at p then p else scan (p + 1) in
  let try_frame p =
    let c = { big; pos = p + 4; limit = len } in
    let parse =
      let* events = get_uvarint c in
      let* cum = get_uvarint c in
      let* plen = get_uvarint c in
      let* crc = get_u32le c in
      if plen > len - c.pos || events > plen then Error "bounds"
      else if Crc32.sub_big big ~pos:c.pos ~len:plen <> crc then Error "crc"
      else
        let* frame = payload ~frame_off:p ~pos:c.pos ~plen ~events in
        Ok (frame, events, cum, c.pos + plen)
    in
    Result.to_option parse
  in
  let try_footer p =
    let c = { big; pos = p + 4; limit = len } in
    let parse =
      let* _nframes = get_uvarint c in
      let* nevents = get_uvarint c in
      let fend = c.pos in
      let* crc = get_u32le c in
      if Crc32.sub_big big ~pos:(p + 4) ~len:(fend - (p + 4)) <> crc then Error "crc"
      else Ok nevents
    in
    Result.to_option parse
  in
  let rec loop p =
    if p + 4 > len then ()
    else
      let m = Bigio.sub_string big ~pos:p ~len:4 in
      if m = frame_marker then
        match try_frame p with
        | Some (frame, events, cum, next) when cum >= !orig ->
          add_lost !orig cum;
          keep frame;
          orig := cum + events;
          incr ok_frames;
          loop next
        | _ ->
          incr skipped;
          loop (scan (p + 1))
      else if m = footer_marker then begin
        match try_footer p with
        | Some nevents when nevents >= !orig ->
          add_lost !orig nevents;
          orig := nevents;
          total := Some nevents
          (* Anything after a valid footer is ignored. *)
        | _ ->
          incr skipped;
          loop (scan (p + 1))
      end
      else begin
        incr skipped;
        loop (scan (p + 1))
      end
  in
  loop c.pos;
  (List.rev !lost, !ok_frames, !skipped, !total)

(* --- entry points ----------------------------------------------------- *)

let check_header c =
  let ( let* ) = Result.bind in
  let* () =
    if c.limit < 4 then
      Error (Printf.sprintf "empty or truncated file (offset %d)" c.limit)
    else if Bigio.sub_string c.big ~pos:0 ~len:4 <> magic then Error "bad magic"
    else begin
      c.pos <- 4;
      Ok ()
    end
  in
  get_uvarint c

let big_version big = check_header (cursor big)

let iter_big ?(on_frame = fun () -> ()) big ~f =
  let ( let* ) = Result.bind in
  let c = cursor big in
  let* v = check_header c in
  if v = version then iter_big_v1 c ~f
  else if v = version_framed then
    walk_frames c ~payload:(fun ~frame_off ~pos ~plen ~events ->
        let* () = decode_frame_events big ~frame_off ~pos ~plen ~events ~f in
        on_frame ();
        Ok ())
  else Error (Printf.sprintf "unsupported version %d" v)

let decode_big big =
  let trace = Trace.create () in
  Result.map (fun () -> trace) (iter_big big ~f:(Trace.add trace))

let read data = decode_big (Bigio.of_bytes data)

let read_file path = decode_big (Bigio.load path)

type lenient = {
  lr_trace : Trace.t;
  lr_lost : lost_range list;
  lr_frames_ok : int;
  lr_frames_skipped : int;
  lr_total_events : int option;
}

let lenient_events_lost l =
  List.fold_left (fun acc r -> acc + (r.lost_to - r.lost_from)) 0 l.lr_lost

let pp_lost_range ppf r =
  Format.fprintf ppf "events [%d, %d)" r.lost_from r.lost_to

let lenient_big big =
  let ( let* ) = Result.bind in
  let c = cursor big in
  let* v = check_header c in
  let* () =
    if v = version_framed then Ok ()
    else if v = version then Error "lenient decode requires a framed (v2) file"
    else Error (Printf.sprintf "unsupported version %d" v)
  in
  let trace = Trace.create () in
  let lost, frames_ok, frames_skipped, total =
    walk_frames_lenient c
      ~payload:(fun ~frame_off ~pos ~plen ~events ->
        let acc = ref [] in
        Result.map
          (fun () -> List.rev !acc)
          (decode_frame_events big ~frame_off ~pos ~plen ~events ~f:(fun e ->
               acc := e :: !acc)))
      ~keep:(List.iter (Trace.add trace))
  in
  Ok
    { lr_trace = trace;
      lr_lost = lost;
      lr_frames_ok = frames_ok;
      lr_frames_skipped = frames_skipped;
      lr_total_events = total }

let read_lenient data = lenient_big (Bigio.of_bytes data)

let read_file_lenient path = lenient_big (Bigio.load path)

let write_file path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create (Trace.length trace * 5) in
      write buf trace;
      Buffer.output_buffer oc buf)

(* New trace files are framed; written atomically so a crash mid-write
   never leaves a half-encoded file behind. *)
let write_file_framed ?frame_events path trace =
  Prefix_util.Fsio.atomic_write path (fun buf -> write_framed ?frame_events buf trace)
