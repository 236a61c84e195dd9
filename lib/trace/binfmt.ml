(* The container vocabulary: wire primitives, the framed layout's two
   walks, and the v1 row encoding that checkpoint identities hash.  The
   one on-disk container, columnar v3, lives in {!Columnar}. *)

module Crc32 = Prefix_util.Crc32
module Bigio = Prefix_util.Bigio

let magic = "PFXT"
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

(* A decode position inside a byte region, bounded by [limit]: the
   container is decoded through one, over the mapped file or over a
   copy of in-memory bytes ({!Bigio.of_bytes}). *)
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

(* --- the v1 row encoding ------------------------------------------------

   One tag byte per event, then its fields as varints, object ids, sites
   and contexts delta-coded against the previous event.  Nothing decodes
   it: it is the stable byte image that checkpoint identities hash. *)

type state = { mutable obj : int; mutable site : int; mutable ctx : int }

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
  put_uvarint buf 1;
  put_uvarint buf (Trace.length trace);
  let st = { obj = 0; site = 0; ctx = 0 } in
  Trace.iter (fun e -> encode_event buf st e) trace

(* --- the framed layout: one strict walk, one lenient walk -------------

   Everything outside a frame's payload: "FRME" frames (event count,
   cumulative count, payload length, CRC32 of the payload), then the
   checksummed "FEND" footer.  Both walks below parse that layout and
   hand each CRC-verified payload to {!Columnar}'s decoder. *)

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

(* --- the header: magic, then the version varint ------------------------- *)

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

