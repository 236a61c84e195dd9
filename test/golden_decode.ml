(* Golden decode corpus: what the strict streaming decoder, the
   whole-buffer [read] and the lenient reader of the columnar container
   make of a small corpus of files — each container clean, with one byte
   appended, without its last frame, cut at every length, and with every
   byte flipped (xor 0xff).
   [gen_golden_decode.exe] prints the rows into [golden_decode.expected];
   test_mmap.ml recomputes and compares them.

   Corpus: a 48-event slice of libc's Profiling trace (seed 7) as v3
   with 8-event frames; the empty trace as v3; and a v3 file whose one
   frame claims a [max_int]-byte payload.  Two files of the retired
   versions appear clean only, so their rows record the refusal: the
   slice in the v1 row encoding of {!Binfmt.write}, and a hand-built v2
   file (one framed-row Compute event).

   A row is one line:

     <file> <input> | strict <outcome> | read <ok DIGEST | rejects>
       | lenient <outcome>

   where the strict outcome lists the events delivered between frame
   boundaries and their digest, followed by the error text when the
   decode stops early. *)

open Prefix_trace
module Bigio = Prefix_util.Bigio
module Crc32 = Prefix_util.Crc32

let digest events =
  String.sub
    (Digest.to_hex (Digest.string (String.concat ";" (List.map Event.to_string events))))
    0 8

type strict = {
  frames : int list;  (** events delivered per frame, in order *)
  events : Event.t list;
  error : string option;
}

(* Runs [decode ~frame ~event]; [frame ()] closes the events delivered
   since the previous call into one group. *)
let observe decode =
  let frames = ref [] and in_frame = ref 0 and events = ref [] in
  let frame () =
    frames := !in_frame :: !frames;
    in_frame := 0
  in
  let event e =
    incr in_frame;
    events := e :: !events
  in
  let r = decode ~frame ~event in
  if !in_frame > 0 then frame ();
  { frames = List.rev !frames;
    events = List.rev !events;
    error = (match r with Ok () -> None | Error m -> Some m) }

let strict_columnar data =
  observe (fun ~frame ~event ->
      Columnar.iter_big (Bigio.of_bytes data) ~f:(fun p ->
          Trace.iter event (Packed.to_trace p);
          frame ()))

let render_strict s =
  Printf.sprintf "strict frames=%s ev=%s%s"
    (String.concat "," (List.map string_of_int s.frames))
    (digest s.events)
    (match s.error with None -> "" | Some m -> Printf.sprintf " error=%S" m)

let render_read = function
  | Ok events -> "read ok " ^ digest events
  | Error _ -> "read rejects"

let render_lenient ~events ~lost ~ok ~skipped ~total =
  Printf.sprintf "lenient ev=%s lost=%s ok=%d skipped=%d total=%s" (digest events)
    (String.concat ","
       (List.map (fun (r : Binfmt.lost_range) -> Printf.sprintf "[%d,%d)" r.lost_from r.lost_to)
          lost))
    ok skipped
    (match total with None -> "none" | Some n -> string_of_int n)

(* One input's outcomes: the row text and the two strict-vs-read error
   messages (equal when [read] rejects as the streaming decoder does). *)
let outcomes data =
  let s = strict_columnar data in
  let read = Result.map (fun p -> Trace.to_list (Packed.to_trace p)) (Columnar.read data) in
  let lenient =
    match Columnar.read_lenient data with
    | Error m -> Printf.sprintf "lenient error=%S" m
    | Ok l ->
      render_lenient ~events:(Trace.to_list (Packed.to_trace l.cl_packed)) ~lost:l.cl_lost
        ~ok:l.cl_frames_ok ~skipped:l.cl_frames_skipped ~total:l.cl_total_events
  in
  ([ render_strict s; render_read read; lenient ], s.error,
   Result.fold ~ok:(fun _ -> None) ~error:Option.some read)

(* A one-frame file of [version] holding one Compute event ([payload]),
   its frame header claiming [plen] payload bytes and the CRC [crc],
   then a valid footer. *)
let one_frame ~version ~payload ~plen ~crc =
  let b = Buffer.create 64 in
  Buffer.add_string b Binfmt.magic;
  Binfmt.put_uvarint b version;
  Buffer.add_string b Binfmt.frame_marker;
  Binfmt.put_uvarint b 1;
  Binfmt.put_uvarint b 0;
  Binfmt.put_uvarint b plen;
  Binfmt.put_u32le b crc;
  Buffer.add_string b payload;
  let footer = Buffer.create 8 in
  Binfmt.put_uvarint footer 1;
  Binfmt.put_uvarint footer 1;
  Buffer.add_string b Binfmt.footer_marker;
  Buffer.add_buffer b footer;
  Binfmt.put_u32le b (Crc32.string (Buffer.contents footer));
  Buffer.to_bytes b

(* A well-formed v2 file: its payload is the framed-row encoding of
   [Compute { instrs = 1; thread = 0 }] (tag 5, then two varints). *)
let v2_file () =
  let payload = "\005\001\000" in
  one_frame ~version:2 ~payload ~plen:(String.length payload) ~crc:(Crc32.string payload)

(* A v3 frame claiming a [max_int]-byte payload with the CRC of an empty
   range; its real payload is the columnar encoding of the same Compute
   event: one tag run, no sites, instrs 1, one thread run. *)
let max_int_payload () =
  one_frame ~version:Columnar.version_columnar
    ~payload:"\001\004\001\000\002\001\000\001" ~plen:max_int ~crc:0

let v1_file t =
  let b = Buffer.create 256 in
  Binfmt.write b t;
  Buffer.to_bytes b

let slice () =
  let wl = Prefix_workloads.Registry.find "libc" in
  let trace = wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
  Trace.of_list (List.filteri (fun i _ -> i >= 1258 && i < 1306) (Trace.to_list trace))

(* The file without its last frame, whose footer then disagrees with
   the stream; [None] for a file without frames. *)
let drop_last_frame data =
  let s = Bytes.to_string data in
  let last_at marker =
    let rec go i =
      if i < 0 then None else if String.sub s i 4 = marker then Some i else go (i - 1)
    in
    go (String.length s - 4)
  in
  match (last_at Binfmt.frame_marker, last_at Binfmt.footer_marker) with
  | Some f, Some e when f < e ->
    Some (Bytes.of_string (String.sub s 0 f ^ String.sub s e (String.length s - e)))
  | _ -> None

let inputs data =
  let n = Bytes.length data in
  let flip k =
    let d = Bytes.copy data in
    Bytes.set d k (Char.chr (Char.code (Bytes.get d k) lxor 0xff));
    d
  in
  [ ("clean", data); ("append", Bytes.cat data (Bytes.make 1 '\000')) ]
  @ Option.to_list (Option.map (fun d -> ("drop-last-frame", d)) (drop_last_frame data))
  @ List.init n (fun k -> (Printf.sprintf "cut %d" k, Bytes.sub data 0 k))
  @ List.init n (fun k -> (Printf.sprintf "flip %d" k, flip k))

(* [(name, inputs)] per file, in row order. *)
let corpus () =
  let t = slice () and empty = Trace.of_list [] in
  [ ("v1", [ ("clean", v1_file t) ]);
    ("v2", [ ("clean", v2_file ()) ]);
    ("v3", inputs (Columnar.to_bytes ~frame_events:8 (Packed.of_trace t)));
    ("v3-empty", inputs (Columnar.to_bytes (Packed.of_trace empty)));
    ("v3-max-int-payload", inputs (max_int_payload ())) ]

type row = {
  line : string;
  strict_error : string option;
  read_error : string option;
}

let rows () =
  List.concat_map
    (fun (name, inputs) ->
      List.map
        (fun (input, d) ->
          let cols, strict_error, read_error = outcomes d in
          { line = String.concat " | " (Printf.sprintf "%s %s" name input :: cols);
            strict_error;
            read_error })
        inputs)
    (corpus ())
