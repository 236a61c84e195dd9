(* Self-validating checkpoint containers.

   A checkpoint file is

     "PFXC" | u8 version | u32le hlen | header | u32le crc(header)
            | u64le plen | payload | u32le crc(payload)

   where [header] carries enough identity — kind, metadata key/values
   such as trace and config digests, event index — to refuse a
   checkpoint written by a different run, and [payload] is an opaque
   string (typically a marshaled {!Executor.session}).  The header has
   its own CRC so it can be validated without reading the payload.  It
   is encoded field by field, never marshaled, so a forged header with
   a valid CRC is an [Error], not a crash:

     header = u32le len | kind | u32le npairs
              | npairs * (u32le len | key | u32le len | value)
              | u64le event_index

   Writes are atomic (temp + fsync + rename, bounded retry) and rotate
   the previous file to [*.prev]; loads fall back to [*.prev] when the
   current file is torn or corrupt, so a crash mid-write never loses
   more than one checkpoint interval. *)

module Crc32 = Prefix_util.Crc32
module Fsio = Prefix_util.Fsio

let magic = "PFXC"
let version = 2

type header = {
  kind : string;
  meta : (string * string) list;
  event_index : int;
}

(* ---- binary helpers ------------------------------------------------- *)

let put_u32le buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put_u64le buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u32le s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let get_u64le s pos =
  let b i = Char.code s.[pos + i] in
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor b i
  done;
  !v

(* ---- after-save hook (used by the crash campaign) ------------------- *)

let save_count = Atomic.make 0
let after_save_hook : (int -> unit) ref = ref (fun _ -> ())
let saves () = Atomic.get save_count
let set_after_save f = after_save_hook := f
let reset_saves () = Atomic.set save_count 0

(* ---- encode / decode ------------------------------------------------ *)

let encode_header h =
  let buf = Buffer.create 256 in
  let put_string s =
    put_u32le buf (String.length s);
    Buffer.add_string buf s
  in
  put_string h.kind;
  put_u32le buf (List.length h.meta);
  List.iter
    (fun (k, v) ->
      put_string k;
      put_string v)
    h.meta;
  put_u64le buf h.event_index;
  Buffer.contents buf

exception Malformed of string

(* Every length is checked against the bytes left before it is used, a
   bound that cannot wrap. *)
let parse_header hbytes =
  let len = String.length hbytes in
  let pos = ref 0 in
  let take n what =
    if n > len - !pos then raise (Malformed what);
    let p = !pos in
    pos := p + n;
    p
  in
  let u32 what = get_u32le hbytes (take 4 what) in
  let str what =
    let n = u32 what in
    String.sub hbytes (take n what) n
  in
  let rec pairs n acc =
    if n = 0 then List.rev acc
    else
      let k = str "meta key" in
      let v = str "meta value" in
      pairs (n - 1) ((k, v) :: acc)
  in
  match
    let kind = str "kind" in
    let meta = pairs (u32 "meta count") [] in
    let p = take 8 "event index" in
    (* A non-negative int has its top two bits clear. *)
    if Char.code hbytes.[p + 7] > 0x3f then raise (Malformed "event index");
    if !pos <> len then raise (Malformed "trailing bytes");
    { kind; meta; event_index = get_u64le hbytes p }
  with
  | h -> Ok h
  | exception Malformed what -> Error ("malformed checkpoint header (" ^ what ^ ")")

let encode header ~payload =
  let hbytes = encode_header header in
  let buf = Buffer.create (String.length hbytes + String.length payload + 64) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_u32le buf (String.length hbytes);
  Buffer.add_string buf hbytes;
  put_u32le buf (Crc32.string hbytes);
  put_u64le buf (String.length payload);
  Buffer.add_string buf payload;
  put_u32le buf (Crc32.string payload);
  Buffer.contents buf

let decode_header data =
  let len = String.length data in
  if len < 9 then Error "truncated checkpoint (no header)"
  else if String.sub data 0 4 <> magic then Error "bad checkpoint magic"
  else if Char.code data.[4] <> version then
    Error
      (Printf.sprintf "unsupported checkpoint version %d (expected %d)"
         (Char.code data.[4]) version)
  else begin
    let hlen = get_u32le data 5 in
    if hlen < 0 || len < 9 + hlen + 4 then Error "truncated checkpoint header"
    else begin
      let hbytes = String.sub data 9 hlen in
      let hcrc = get_u32le data (9 + hlen) in
      if Crc32.string hbytes <> hcrc then Error "checkpoint header CRC mismatch"
      else Result.map (fun h -> (h, 9 + hlen + 4)) (parse_header hbytes)
    end
  end

let decode data =
  match decode_header data with
  | Error _ as e -> e
  | Ok (h, pos) ->
    let len = String.length data in
    if len < pos + 8 then Error "truncated checkpoint (no payload length)"
    else begin
      let plen = get_u64le data pos in
      (* [plen] is untrusted: compare it against the bytes left, a
         bound that cannot wrap the way [pos + 8 + plen + 4] can. *)
      if plen < 0 || plen > len - pos - 12 then
        Error "truncated checkpoint payload"
      else begin
        let payload = String.sub data (pos + 8) plen in
        let pcrc = get_u32le data (pos + 8 + plen) in
        if Crc32.string payload <> pcrc then
          Error "checkpoint payload CRC mismatch"
        else if len <> pos + 8 + plen + 4 then
          Error "trailing bytes after checkpoint payload"
        else Ok (h, payload)
      end
    end

(* ---- save / load ---------------------------------------------------- *)

let prev_path path = path ^ ".prev"

let save ~path header ~payload =
  let data = encode header ~payload in
  if Sys.file_exists path then
    Fsio.with_retry (fun () -> Sys.rename path (prev_path path));
  Fsio.atomic_write_string path data;
  let n = Atomic.fetch_and_add save_count 1 + 1 in
  !after_save_hook n

let load_file path =
  match Fsio.read_file path with
  | Error e -> Error e
  | Ok data -> decode data

let load ~path =
  match load_file path with
  | Ok (h, payload) -> Ok (h, payload, `Current)
  | Error e1 -> (
    match load_file (prev_path path) with
    | Ok (h, payload) -> Ok (h, payload, `Previous)
    | Error e2 ->
      Error
        (Printf.sprintf "%s: %s (fallback %s: %s)" path e1 (prev_path path) e2))

let validate ~path =
  match Fsio.read_file path with
  | Error e -> Error e
  | Ok data -> (
    match decode data with Ok (h, _) -> Ok h | Error _ as e -> e)

(* A checkpoint header is only acceptable for the run that wrote it. *)
let check_meta (h : header) ~kind ~meta =
  if h.kind <> kind then
    Error (Printf.sprintf "checkpoint kind %S does not match %S" h.kind kind)
  else
    let rec go = function
      | [] -> Ok ()
      | (k, v) :: rest -> (
        match List.assoc_opt k h.meta with
        | Some v' when v' = v -> go rest
        | Some v' ->
          Error (Printf.sprintf "checkpoint %s mismatch: %S, expected %S" k v' v)
        | None -> Error (Printf.sprintf "checkpoint is missing field %S" k))
    in
    go meta

(* A full session snapshot costs a few milliseconds (marshal + atomic
   write + fsync).  Saving at most once per throttle window bounds the
   steady-state replay overhead at roughly save_cost / window — ~2.5%
   at the default — independent of segment size or replay speed. *)
let default_throttle_ms = 100.

(* ---- resource guardrails -------------------------------------------- *)

type guardrails = {
  deadline_s : float option;
  max_rss_mb : int option;
}

let no_guardrails = { deadline_s = None; max_rss_mb = None }

exception Breach of string

type monitor = {
  g : guardrails;
  started : float;
}

let rss_mb () =
  (* VmRSS from /proc/self/status; absent on non-Linux — guardrail is
     then a no-op rather than an error. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
          Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> kb / 1024)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let start g = { g; started = Unix.gettimeofday () }

let breach ~metric msg =
  Prefix_obs.Metric.incr (Prefix_obs.Metric.counter "guardrail.breaches");
  Prefix_obs.Metric.incr (Prefix_obs.Metric.counter metric);
  raise (Breach msg)

let check m =
  (match m.g.deadline_s with
  | Some limit ->
    let elapsed = Unix.gettimeofday () -. m.started in
    if elapsed > limit then
      breach ~metric:"guardrail.deadline_breaches"
        (Printf.sprintf "deadline exceeded: %.1fs elapsed > %.1fs" elapsed limit)
  | None -> ());
  match m.g.max_rss_mb with
  | Some limit -> (
    match rss_mb () with
    | Some rss when rss > limit ->
      Prefix_obs.Metric.set (Prefix_obs.Metric.gauge "guardrail.rss_mb")
        (float_of_int rss);
      breach ~metric:"guardrail.rss_breaches"
        (Printf.sprintf "RSS limit exceeded: %d MB > %d MB" rss limit)
    | _ -> ())
  | None -> ()
