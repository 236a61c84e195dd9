(* Spans recorded by the traced run around each call into a layer of
   the program.  They live in memory on the calling domain and are
   written out once, when the run ends. *)

type t = {
  id : int;
  parent : int;  (** enclosing span, -1 for a root *)
  job : int;  (** model job the span belongs to, -1 outside any job *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  words : float;  (** words this domain allocated inside the span *)
}

let recorded = ref []
let open_spans = ref []
let next_id = ref 0
let current_job = ref (-1)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_ name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with [] -> -1 | p :: _ -> p in
  open_spans := id :: !open_spans;
  let w0 = allocated_words () in
  let t0 = Prefix_obs.Clock.now_ns () in
  let close () =
    let stop_ns = Prefix_obs.Clock.now_ns () in
    let words = allocated_words () -. w0 in
    open_spans := List.tl !open_spans;
    recorded :=
      { id; parent; job = !current_job; name; start_ns = t0; stop_ns; words }
      :: !recorded
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* Every span of [f] carries [job]; [f] runs under one root span named
   "job". *)
let job job f =
  current_job := job;
  Fun.protect ~finally:(fun () -> current_job := -1) (fun () -> with_ "job" f)

let all () = List.rev !recorded

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Self time and self words: a span's own figures minus those of its
   direct children. *)
let self spans =
  let child_s = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_s s.parent (seconds s);
        add child_w s.parent s.words
      end)
    spans;
  let get tbl s = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
  List.map (fun s -> (s, seconds s -. get child_s s, s.words -. get child_w s)) spans

let write_json path spans =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"words\":%.0f}"
        s.id s.parent s.job s.name s.start_ns s.stop_ns s.words)
    spans;
  Buffer.add_string buf "\n]\n";
  Prefix_util.Fsio.atomic_write_string ~fsync:false path (Buffer.contents buf)
