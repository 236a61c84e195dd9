(* Columnar compressed trace container (format v3), the one on-disk
   trace format.

   The file is framed by {!Binfmt}: "PFXT" magic and version, "FRME"
   frames (event count, cumulative count, payload length, CRC32), a
   checksummed "FEND" footer, parsed by {!Binfmt}'s strict and lenient
   walks.  Each frame's payload is column-oriented:

     1. tag index        n_runs, then (tag byte, run length) pairs —
                         run-length encoded, and exactly the run
                         partition the executor's tag-specialized
                         dispatch wants
     2. site dictionary  sorted unique alloc sites, delta-varint
     3. obj column       zig-zag varint deltas, chained over the
                         non-Compute events of the frame (Compute rows
                         are implicitly object 0)
     4. alloc sites      dictionary indices, uvarint
     5. alloc sizes      zig-zag varint
     6. alloc ctxs       zig-zag varint deltas (chained per frame)
     7. access offsets   zig-zag varint
     8. access writes    bit-packed, 8 flags/byte, LSB first
     9. realloc sizes    zig-zag varint
    10. compute instrs   zig-zag varint
    11. thread index     n_runs, then (thread varint, run length) pairs

   The decoder writes each column straight into flat int arrays — the
   {!Packed.t} layout — with per-run bulk fills and no per-event
   allocation, so a decoded frame is replay-ready as is
   ({!Packed.of_arrays} wraps the scratch arrays without copying).
   Value columns are signed varints even where values are normally
   non-negative: fault-injected traces carry negative sizes/offsets
   and must still round-trip. *)

module Crc32 = Prefix_util.Crc32
module Bigio = Prefix_util.Bigio

let magic = Binfmt.magic
let version_columnar = 3
let frame_marker = Binfmt.frame_marker
let footer_marker = Binfmt.footer_marker
let default_frame_events = Binfmt.default_frame_events

(* ---- encoding -------------------------------------------------------- *)

let put_uvarint = Binfmt.put_uvarint
let put_varint = Binfmt.put_varint
let put_u32le = Binfmt.put_u32le

(* One frame's payload for events [pos, pos+len) of [p], appended to
   [payload].  Column buffers are built in one main pass (plus a site
   pre-pass) and concatenated in layout order. *)
let encode_range payload (p : Packed.t) ~pos ~len =
  let tags = p.Packed.tag
  and objs = p.Packed.obj
  and fas = p.Packed.fa
  and fbs = p.Packed.fb
  and fcs = p.Packed.fc
  and threads = p.Packed.thread in
  let stop = pos + len in
  (* 1. run-length tag index *)
  let tag_runs = Buffer.create 64 in
  let n_runs = ref 0 in
  let i = ref pos in
  while !i < stop do
    let t = Array.unsafe_get tags !i in
    let j = ref (!i + 1) in
    while !j < stop && Array.unsafe_get tags !j = t do incr j done;
    Buffer.add_char tag_runs (Char.chr t);
    put_uvarint tag_runs (!j - !i);
    incr n_runs;
    i := !j
  done;
  let tag_b = Buffer.create (Buffer.length tag_runs + 4) in
  put_uvarint tag_b !n_runs;
  Buffer.add_buffer tag_b tag_runs;
  (* 2. site dictionary (sorted unique alloc sites) *)
  let sites = ref [] in
  for k = pos to stop - 1 do
    if Array.unsafe_get tags k = Packed.tag_alloc then
      sites := Array.unsafe_get fas k :: !sites
  done;
  let dict = Array.of_list (List.sort_uniq compare !sites) in
  let dict_index = Hashtbl.create (max 16 (Array.length dict)) in
  Array.iteri (fun ix s -> Hashtbl.replace dict_index s ix) dict;
  let dict_b = Buffer.create 64 in
  put_uvarint dict_b (Array.length dict);
  let prev = ref 0 in
  Array.iter
    (fun s ->
      put_varint dict_b (s - !prev);
      prev := s)
    dict;
  (* 3-10. value columns, one main pass *)
  let obj_b = Buffer.create (len + 16) in
  let asite_b = Buffer.create 64 in
  let asize_b = Buffer.create 64 in
  let actx_b = Buffer.create 64 in
  let aoff_b = Buffer.create 64 in
  let awr_b = Buffer.create 16 in
  let arel_b = Buffer.create 16 in
  let acomp_b = Buffer.create 16 in
  let wbits = ref 0 in
  let wn = ref 0 in
  let prev_obj = ref 0 in
  let prev_ctx = ref 0 in
  for k = pos to stop - 1 do
    let t = Array.unsafe_get tags k in
    if t <> Packed.tag_compute then begin
      let o = Array.unsafe_get objs k in
      put_varint obj_b (o - !prev_obj);
      prev_obj := o
    end;
    if t = Packed.tag_alloc then begin
      put_uvarint asite_b (Hashtbl.find dict_index (Array.unsafe_get fas k));
      put_varint asize_b (Array.unsafe_get fbs k);
      let ctx = Array.unsafe_get fcs k in
      put_varint actx_b (ctx - !prev_ctx);
      prev_ctx := ctx
    end
    else if t = Packed.tag_access then begin
      put_varint aoff_b (Array.unsafe_get fas k);
      if Array.unsafe_get fbs k <> 0 then wbits := !wbits lor (1 lsl !wn);
      incr wn;
      if !wn = 8 then begin
        Buffer.add_char awr_b (Char.chr !wbits);
        wbits := 0;
        wn := 0
      end
    end
    else if t = Packed.tag_realloc then put_varint arel_b (Array.unsafe_get fas k)
    else if t = Packed.tag_compute then put_varint acomp_b (Array.unsafe_get fas k)
  done;
  if !wn > 0 then Buffer.add_char awr_b (Char.chr !wbits);
  (* 11. run-length thread index *)
  let thr_b = Buffer.create 16 in
  let n_truns = ref 0 in
  let thr_runs = Buffer.create 16 in
  let i = ref pos in
  while !i < stop do
    let th = Array.unsafe_get threads !i in
    let j = ref (!i + 1) in
    while !j < stop && Array.unsafe_get threads !j = th do incr j done;
    put_varint thr_runs th;
    put_uvarint thr_runs (!j - !i);
    incr n_truns;
    i := !j
  done;
  put_uvarint thr_b !n_truns;
  Buffer.add_buffer thr_b thr_runs;
  (* concatenate in layout order *)
  Buffer.add_buffer payload tag_b;
  Buffer.add_buffer payload dict_b;
  Buffer.add_buffer payload obj_b;
  Buffer.add_buffer payload asite_b;
  Buffer.add_buffer payload asize_b;
  Buffer.add_buffer payload actx_b;
  Buffer.add_buffer payload aoff_b;
  Buffer.add_buffer payload awr_b;
  Buffer.add_buffer payload arel_b;
  Buffer.add_buffer payload acomp_b;
  Buffer.add_buffer payload thr_b

module Writer = struct
  type t = {
    buf : Buffer.t;
    frame_events : int;
    payload : Buffer.t;
    mutable cum : int;
    mutable frames : int;
    mutable finished : bool;
  }

  let create ?(frame_events = default_frame_events) buf =
    if frame_events <= 0 then
      invalid_arg "Columnar.Writer.create: frame_events must be positive";
    Buffer.add_string buf magic;
    put_uvarint buf version_columnar;
    { buf;
      frame_events;
      payload = Buffer.create 4096;
      cum = 0;
      frames = 0;
      finished = false }

  let emit_frame w p ~pos ~len =
    Buffer.clear w.payload;
    encode_range w.payload p ~pos ~len;
    Buffer.add_string w.buf frame_marker;
    put_uvarint w.buf len;
    put_uvarint w.buf w.cum;
    put_uvarint w.buf (Buffer.length w.payload);
    put_u32le w.buf (Crc32.string (Buffer.contents w.payload));
    Buffer.add_buffer w.buf w.payload;
    w.cum <- w.cum + len;
    w.frames <- w.frames + 1

  let add_segment w p =
    if w.finished then invalid_arg "Columnar.Writer.add_segment: writer finished";
    let n = Packed.length p in
    let pos = ref 0 in
    while !pos < n do
      let len = min w.frame_events (n - !pos) in
      emit_frame w p ~pos:!pos ~len;
      pos := !pos + len
    done

  let finish w =
    if w.finished then invalid_arg "Columnar.Writer.finish: writer finished";
    w.finished <- true;
    let fb = Buffer.create 16 in
    put_uvarint fb w.frames;
    put_uvarint fb w.cum;
    Buffer.add_string w.buf footer_marker;
    Buffer.add_buffer w.buf fb;
    put_u32le w.buf (Crc32.string (Buffer.contents fb))
end

let write_buffer ?frame_events buf p =
  let w = Writer.create ?frame_events buf in
  Writer.add_segment w p;
  Writer.finish w

let to_bytes ?frame_events p =
  let buf = Buffer.create (Packed.length p * 3) in
  write_buffer ?frame_events buf p;
  Buffer.to_bytes buf

let write_file ?frame_events path p =
  Prefix_util.Fsio.atomic_write path (fun buf -> write_buffer ?frame_events buf p)

(* ---- decoding -------------------------------------------------------- *)

(* Reusable frame-decode scratch: the column arrays are resized
   geometrically and shared with the [Packed.t] handed to consumers
   (zero-copy), so a streaming pass allocates O(max frame) however many
   frames flow through. *)
type decoder = {
  mutable cap : int;
  mutable d_tag : int array;
  mutable d_obj : int array;
  mutable d_fa : int array;
  mutable d_fb : int array;
  mutable d_fc : int array;
  mutable d_thread : int array;
  mutable runs_cap : int;
  mutable runs_tag : int array;
  mutable runs_len : int array;
  (* Per-tag run index, rebuilt per frame from the tag pass: offsets
     and lengths of the runs of each tag, so every column pass walks
     only its own tag's runs instead of scanning the full run list. *)
  tr_n : int array;
  tr_off : int array array;
  tr_len : int array array;
  mutable dict_cap : int;
  mutable dict : int array;
}

let decoder_create () =
  { cap = 0;
    d_tag = [||];
    d_obj = [||];
    d_fa = [||];
    d_fb = [||];
    d_fc = [||];
    d_thread = [||];
    runs_cap = 0;
    runs_tag = [||];
    runs_len = [||];
    tr_n = Array.make 5 0;
    tr_off = Array.make 5 [||];
    tr_len = Array.make 5 [||];
    dict_cap = 0;
    dict = [||] }

let grow_to n cur = max n (max 16 (2 * cur))

let ensure_cap d n =
  if n > d.cap then begin
    let c = grow_to n d.cap in
    d.cap <- c;
    d.d_tag <- Array.make c 0;
    d.d_obj <- Array.make c 0;
    d.d_fa <- Array.make c 0;
    d.d_fb <- Array.make c 0;
    d.d_fc <- Array.make c 0;
    d.d_thread <- Array.make c 0
  end

let ensure_runs d n =
  if n > d.runs_cap then begin
    let c = grow_to n d.runs_cap in
    d.runs_cap <- c;
    d.runs_tag <- Array.make c 0;
    d.runs_len <- Array.make c 0;
    for t = 0 to 4 do
      d.tr_off.(t) <- Array.make c 0;
      d.tr_len.(t) <- Array.make c 0
    done
  end

let ensure_dict d n =
  if n > d.dict_cap then begin
    let c = grow_to n d.dict_cap in
    d.dict_cap <- c;
    d.dict <- Array.make c 0
  end

exception Corrupt of string

let fail msg = raise (Corrupt msg)

(* Decode one CRC-verified payload at [data[pos, pos+plen)] into [d] and
   return the frame as a zero-copy packed view over the scratch arrays
   (valid until the next decode into [d]).  All structural claims are
   validated, so a bit-flipped payload that somehow passes the CRC still
   cannot crash the caller or fabricate out-of-range columns. *)
let decode_payload_big d (data : Bigio.t) ~pos:pos0 ~plen ~n_events =
  try
    let limit = pos0 + plen in
    if limit > Bigio.length data then fail "truncated frame payload";
    let pos = ref pos0 in
    let u8 () =
      if !pos >= limit then fail "truncated column";
      let b = Char.code (Bigio.unsafe_get data !pos) in
      incr pos;
      b
    in
    (* Exception-based varint readers, flattened into iterative loops
       with a single-byte fast path: these run two-to-three times per
       event and dominate decode time.  [unsafe_get] is guarded by the
       [limit] check; shifts stay in 0..56 (9 bytes = 63 bits), exactly
       the encoder's range. *)
    let slow_tail first_byte =
      let acc = ref (first_byte land 0x7f) in
      let shift = ref 7 in
      let p = ref (!pos + 1) in
      let more = ref true in
      while !more do
        if !shift > 56 then fail "varint too long";
        if !p >= limit then fail "truncated column";
        let b = Char.code (Bigio.unsafe_get data !p) in
        incr p;
        acc := !acc lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        if b land 0x80 = 0 then more := false
      done;
      pos := !p;
      !acc
    in
    let uv () =
      let p = !pos in
      if p >= limit then fail "truncated column";
      let b = Char.code (Bigio.unsafe_get data p) in
      if b < 0x80 then begin
        pos := p + 1;
        b
      end
      else begin
        let acc = slow_tail b in
        if acc < 0 then fail "varint overflows";
        acc
      end
    in
    let sv () =
      let p = !pos in
      if p >= limit then fail "truncated column";
      let b = Char.code (Bigio.unsafe_get data p) in
      let acc =
        if b < 0x80 then begin
          pos := p + 1;
          b
        end
        else slow_tail b
      in
      (acc lsr 1) lxor (- (acc land 1))
    in
    ensure_cap d n_events;
    let tag_a = d.d_tag
    and obj_a = d.d_obj
    and fa_a = d.d_fa
    and fb_a = d.d_fb
    and fc_a = d.d_fc
    and thread_a = d.d_thread in
    (* 1. tag runs *)
    let n_runs = uv () in
    if n_runs > n_events then fail "implausible run count";
    ensure_runs d n_runs;
    let runs_tag = d.runs_tag and runs_len = d.runs_len in
    let filled = ref 0 in
    let n_alloc = ref 0 and n_access = ref 0 in
    Array.fill d.tr_n 0 5 0;
    for r = 0 to n_runs - 1 do
      let t = u8 () in
      if t > Packed.tag_compute then fail "bad tag in run index";
      let rl = uv () in
      if rl <= 0 || !filled + rl > n_events then fail "tag runs overflow event count";
      runs_tag.(r) <- t;
      runs_len.(r) <- rl;
      Array.fill tag_a !filled rl t;
      let tn = Array.unsafe_get d.tr_n t in
      Array.unsafe_set (Array.unsafe_get d.tr_off t) tn !filled;
      Array.unsafe_set (Array.unsafe_get d.tr_len t) tn rl;
      Array.unsafe_set d.tr_n t (tn + 1);
      if t = Packed.tag_alloc then n_alloc := !n_alloc + rl
      else if t = Packed.tag_access then n_access := !n_access + rl;
      filled := !filled + rl
    done;
    if !filled <> n_events then fail "tag runs disagree with event count";
    (* 2. site dictionary *)
    let n_sites = uv () in
    if n_sites > !n_alloc then fail "implausible dictionary size";
    ensure_dict d n_sites;
    let dict = d.dict in
    let prev = ref 0 in
    for s = 0 to n_sites - 1 do
      prev := !prev + sv ();
      dict.(s) <- !prev
    done;
    (* 3. obj column (Compute rows are implicitly 0) *)
    let prev_obj = ref 0 in
    let off = ref 0 in
    for r = 0 to n_runs - 1 do
      let rl = Array.unsafe_get runs_len r in
      if Array.unsafe_get runs_tag r = Packed.tag_compute then
        Array.fill obj_a !off rl 0
      else
        for k = !off to !off + rl - 1 do
          prev_obj := !prev_obj + sv ();
          Array.unsafe_set obj_a k !prev_obj
        done;
      off := !off + rl
    done;
    (* Per-column passes: each walks only its own tag's runs, via the
       per-tag index built in the tag pass above. *)
    let iter_runs tag fill =
      let offs = Array.unsafe_get d.tr_off tag
      and lens = Array.unsafe_get d.tr_len tag in
      for r = 0 to Array.unsafe_get d.tr_n tag - 1 do
        fill (Array.unsafe_get offs r) (Array.unsafe_get lens r)
      done
    in
    (* 4. alloc sites (dictionary indices) -> fa *)
    iter_runs Packed.tag_alloc (fun off rl ->
        for k = off to off + rl - 1 do
          let ix = uv () in
          if ix >= n_sites then fail "site index out of dictionary range";
          Array.unsafe_set fa_a k (Array.unsafe_get dict ix)
        done);
    (* 5. alloc sizes -> fb *)
    iter_runs Packed.tag_alloc (fun off rl ->
        for k = off to off + rl - 1 do
          Array.unsafe_set fb_a k (sv ())
        done);
    (* 6. alloc ctxs (delta-chained) -> fc *)
    let prev_ctx = ref 0 in
    iter_runs Packed.tag_alloc (fun off rl ->
        for k = off to off + rl - 1 do
          prev_ctx := !prev_ctx + sv ();
          Array.unsafe_set fc_a k !prev_ctx
        done);
    (* 7. access offsets -> fa *)
    iter_runs Packed.tag_access (fun off rl ->
        for k = off to off + rl - 1 do
          Array.unsafe_set fa_a k (sv ())
        done);
    (* 8. access write flags (bit-packed) -> fb *)
    let bitn = ref 0 in
    let wcur = ref 0 in
    iter_runs Packed.tag_access (fun off rl ->
        for k = off to off + rl - 1 do
          if !bitn land 7 = 0 then wcur := u8 ();
          Array.unsafe_set fb_a k ((!wcur lsr (!bitn land 7)) land 1);
          incr bitn
        done);
    (* 9. realloc new sizes -> fa *)
    iter_runs Packed.tag_realloc (fun off rl ->
        for k = off to off + rl - 1 do
          Array.unsafe_set fa_a k (sv ())
        done);
    (* 10. compute instrs -> fa *)
    iter_runs Packed.tag_compute (fun off rl ->
        for k = off to off + rl - 1 do
          Array.unsafe_set fa_a k (sv ())
        done);
    (* Zero the fields each tag leaves undefined, matching
       {!Packed.of_trace}'s layout exactly (bulk fills per run). *)
    iter_runs Packed.tag_access (fun off rl -> Array.fill fc_a off rl 0);
    iter_runs Packed.tag_free (fun off rl ->
        Array.fill fa_a off rl 0;
        Array.fill fb_a off rl 0;
        Array.fill fc_a off rl 0);
    iter_runs Packed.tag_realloc (fun off rl ->
        Array.fill fb_a off rl 0;
        Array.fill fc_a off rl 0);
    iter_runs Packed.tag_compute (fun off rl ->
        Array.fill fb_a off rl 0;
        Array.fill fc_a off rl 0);
    (* 11. thread runs *)
    let n_truns = uv () in
    if n_truns > n_events then fail "implausible thread run count";
    let toff = ref 0 in
    for _ = 1 to n_truns do
      let th = sv () in
      let rl = uv () in
      if rl <= 0 || !toff + rl > n_events then fail "thread runs overflow event count";
      Array.fill thread_a !toff rl th;
      toff := !toff + rl
    done;
    if !toff <> n_events then fail "thread runs disagree with event count";
    if !pos <> limit then fail "frame payload length mismatch";
    Ok
      (Packed.of_arrays ~len:n_events ~tag:tag_a ~obj:obj_a ~fa:fa_a ~fb:fb_a
         ~fc:fc_a ~thread:thread_a)
  with Corrupt msg -> Error msg

(* ---- decode: the framed walks of {!Binfmt} over a mapping ---------- *)

let check_header c =
  let ( let* ) = Result.bind in
  let* v = Binfmt.check_header c in
  if v <> version_columnar then
    Error (Printf.sprintf "unsupported version %d (columnar is %d)" v version_columnar)
  else Ok ()

(* Strict frame-at-a-time walk: markers, CRCs and column bytes all read
   from the mapping, no payload copy at all. *)
let iter_big ?(decoder = decoder_create ()) big ~f =
  let ( let* ) = Result.bind in
  let c = Binfmt.cursor big in
  let* () = check_header c in
  Binfmt.walk_frames c ~payload:(fun ~frame_off:_ ~pos ~plen ~events ->
      let* frame = decode_payload_big decoder big ~pos ~plen ~n_events:events in
      f frame;
      Ok ())

(* Concatenate per-frame copies, newest first, into one packed trace. *)
let concat_chunks chunks =
  let chunks = List.rev chunks in
  let total = List.fold_left (fun n p -> n + Packed.length p) 0 chunks in
  let tag = Array.make total 0
  and obj = Array.make total 0
  and fa = Array.make total 0
  and fb = Array.make total 0
  and fc = Array.make total 0
  and thread = Array.make total 0 in
  let off = ref 0 in
  List.iter
    (fun (p : Packed.t) ->
      let n = Packed.length p in
      Array.blit p.Packed.tag 0 tag !off n;
      Array.blit p.Packed.obj 0 obj !off n;
      Array.blit p.Packed.fa 0 fa !off n;
      Array.blit p.Packed.fb 0 fb !off n;
      Array.blit p.Packed.fc 0 fc !off n;
      Array.blit p.Packed.thread 0 thread !off n;
      off := !off + n)
    chunks;
  Packed.of_arrays ~len:total ~tag ~obj ~fa ~fb ~fc ~thread

(* Copy a decoded frame out of the decoder scratch (materializing
   readers only; the streaming path never copies). *)
let copy_frame (p : Packed.t) =
  let n = Packed.length p in
  Packed.of_arrays ~len:n
    ~tag:(Array.sub p.Packed.tag 0 n)
    ~obj:(Array.sub p.Packed.obj 0 n)
    ~fa:(Array.sub p.Packed.fa 0 n)
    ~fb:(Array.sub p.Packed.fb 0 n)
    ~fc:(Array.sub p.Packed.fc 0 n)
    ~thread:(Array.sub p.Packed.thread 0 n)

let decode_big big =
  let chunks = ref [] in
  Result.map
    (fun () -> concat_chunks !chunks)
    (iter_big big ~f:(fun frame -> chunks := copy_frame frame :: !chunks))

let read data = decode_big (Bigio.of_bytes data)

let read_file path = decode_big (Bigio.load path)

(* ---- lenient decode --------------------------------------------------- *)

type lenient = {
  cl_packed : Packed.t;
  cl_lost : Binfmt.lost_range list;
  cl_frames_ok : int;
  cl_frames_skipped : int;
  cl_total_events : int option;
}

let lenient_events_lost l =
  List.fold_left
    (fun acc (r : Binfmt.lost_range) -> acc + (r.lost_to - r.lost_from))
    0 l.cl_lost

let lenient_big big =
  let ( let* ) = Result.bind in
  let c = Binfmt.cursor big in
  let* () = check_header c in
  let d = decoder_create () in
  let chunks = ref [] in
  let lost, frames_ok, frames_skipped, total =
    Binfmt.walk_frames_lenient c
      ~payload:(fun ~frame_off:_ ~pos ~plen ~events ->
        Result.map copy_frame (decode_payload_big d big ~pos ~plen ~n_events:events))
      ~keep:(fun frame -> chunks := frame :: !chunks)
  in
  Ok
    { cl_packed = concat_chunks !chunks;
      cl_lost = lost;
      cl_frames_ok = frames_ok;
      cl_frames_skipped = frames_skipped;
      cl_total_events = total }

let read_lenient data = lenient_big (Bigio.of_bytes data)
