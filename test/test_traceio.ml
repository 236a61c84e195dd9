(* Tests for trace pruning and the binary trace format.

   - pruning: the pipeline prunes a trace to its hot-object access
     sequence with [Detector.hot_sequence] (§2.1: "From the pruned
     trace, we identified ... hot HDS");
   - the binary format: the wire primitives of [Binfmt], the columnar
     container as a file, and the v1 row encoding [Binfmt.write], which
     no reader accepts;
   - the framed layout (binfmt-v2): [Binfmt]'s strict and lenient walks
     over the frames and footer of a container, with no payload
     decoder. *)

open Prefix_trace
module B = Prefix_workloads.Builder
module Detector = Prefix_hds.Detector

(* ---- Pruning ---- *)

(* Two hot objects accessed in alternating runs of ten, one cold access
   after each pair of runs. *)
let pruner_input () =
  let b = B.create ~seed:21 () in
  let hot_a = B.alloc b ~site:1 64 in
  let hot_b = B.alloc b ~site:2 64 in
  let cold = B.alloc b ~site:3 64 in
  for _ = 1 to 50 do
    List.iter
      (fun o ->
        for k = 0 to 9 do
          B.access b o (k * 4 mod 64)
        done)
      [ hot_a; hot_b ];
    B.access b cold 0
  done;
  List.iter (B.free b) [ hot_a; hot_b; cold ];
  let trace = B.trace b in
  (trace, Trace_stats.analyze trace, hot_a, hot_b, cold)

let test_prune_drops_cold_accesses () =
  let trace, stats, hot_a, hot_b, cold = pruner_input () in
  let seq = Detector.hot_sequence stats trace in
  Alcotest.(check bool) "cold object absent" false (Array.mem cold seq);
  Array.iter
    (fun o -> Alcotest.(check bool) "only hot objects" true (o = hot_a || o = hot_b))
    seq

let test_prune_caps_runs () =
  let trace, stats, _, _, _ = pruner_input () in
  let seq = Detector.hot_sequence stats trace in
  (* Each ten-access run collapses to one element: 50 x 2 runs. *)
  Alcotest.(check int) "one element per run" 100 (Array.length seq);
  Array.iteri
    (fun i o -> if i > 0 && seq.(i - 1) = o then Alcotest.failf "repeat at %d" i)
    seq

let test_prune_config_for_hot () =
  let trace, stats, hot_a, hot_b, _ = pruner_input () in
  let seq = Detector.hot_sequence stats trace in
  let kept = List.sort_uniq compare (Array.to_list seq) in
  Alcotest.(check (list int)) "the default coverage's hot set"
    (List.sort compare
       (List.map
          (fun (o : Trace_stats.obj_info) -> o.obj)
          (Trace_stats.hot_objects ~coverage:Detector.default_config.coverage stats)))
    kept;
  Alcotest.(check (list int)) "both hot objects" (List.sort compare [ hot_a; hot_b ]) kept;
  Alcotest.(check bool) "reduction positive" true
    (Array.length seq * 10 < Trace.num_accesses trace)

(* ---- Binary format ---- *)

let with_temp_file f =
  let path = Filename.temp_file "prefix_trace" ".pfxt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let v1_bytes = Golden_decode.v1_file

let test_binfmt_compact () =
  let w = Prefix_workloads.Registry.find "libc" in
  let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
  let binary = Bytes.length (Columnar.to_bytes (Packed.of_trace trace)) in
  let text = Trace.fold (fun n e -> n + String.length (Event.to_line e) + 1) 0 trace in
  Alcotest.(check bool)
    (Printf.sprintf "container (%d B) at most half of the text dump (%d B)" binary text)
    true
    (binary * 2 < text)

let test_binfmt_rejects_garbage () =
  List.iter
    (fun data ->
      match Columnar.read (Bytes.of_string data) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" data)
    [ "nope"; "PFXT"; (* a v1 header claiming one event, no payload *) "PFXT\001\001";
      (* a v3 header without frames or footer *) "PFXT\003" ]

(* Three workloads through the file: written as a container, read
   back whole by the mapped-file stream decoder. *)
let test_binfmt_roundtrip_workloads () =
  List.iter
    (fun name ->
      let w = Prefix_workloads.Registry.find name in
      let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      with_temp_file (fun path ->
          Columnar.write_file path (Packed.of_trace trace);
          let trace' = Stream.to_trace (Stream.of_binary_file path) in
          Alcotest.(check int) (name ^ " length") (Trace.length trace) (Trace.length trace');
          Alcotest.(check bool) (name ^ " events") true
            (Trace.to_list trace' = Trace.to_list trace)))
    [ "mcf"; "libc"; "swissmap" ]

let test_binfmt_file_io () =
  let w = Prefix_workloads.Registry.find "mcf" in
  let packed =
    Packed.of_trace (w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ())
  in
  with_temp_file (fun path ->
      Columnar.write_file path packed;
      match Columnar.read_file path with
      | Error e -> Alcotest.fail e
      | Ok p ->
        Alcotest.(check int) "roundtrip" (Packed.length packed) (Packed.length p);
        Alcotest.(check int) "streamed" (Packed.length packed)
          (Stream.length (Stream.of_binary_file path)))

(* Field values past one varint byte (ids to 1000, offsets to 10,000,
   instruction counts to 100,000), through the container in frames of
   1 to 100 events. *)
let prop_binfmt_roundtrip =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 100)
        (list_size (int_range 0 80)
           (oneof
              [ map3
                  (fun o s size ->
                    Event.Alloc { obj = o; site = s; ctx = s; size = size + 1; thread = 0 })
                  (int_range 1 1000) (int_range 1 50) (int_range 0 5000);
                map2
                  (fun o off ->
                    Event.Access { obj = o; offset = off; write = off mod 2 = 0; thread = 0 })
                  (int_range 1 1000) (int_range 0 10_000);
                map (fun o -> Event.Free { obj = o; thread = 0 }) (int_range 1 1000);
                map2
                  (fun o s -> Event.Realloc { obj = o; new_size = s + 1; thread = 0 })
                  (int_range 1 1000) (int_range 0 5000);
                map (fun n -> Event.Compute { instrs = n; thread = 0 }) (int_range 0 100_000) ])))
  in
  QCheck.Test.make ~name:"binfmt roundtrips arbitrary event lists" ~count:300
    (QCheck.make gen)
    (fun (frame_events, es) ->
      let p = Packed.of_trace (Trace.of_list es) in
      match Columnar.read (Columnar.to_bytes ~frame_events p) with
      | Ok p' -> Trace.to_list (Packed.to_trace p') = es
      | Error _ -> false)

(* Decode fuzz over the bytes of a retired version: random byte flips
   and truncations of a v1 encoding must come back as [Ok] or [Error]
   from the container readers, and as a [Failure] at most from the
   stream — never another exception. *)
let prop_binfmt_decode_fuzz =
  let base =
    let b = B.create ~seed:33 () in
    let objs = Array.init 8 (fun i -> B.alloc b ~site:(i + 1) (32 * (i + 1))) in
    for k = 0 to 199 do
      B.access b objs.(k mod 8) (k mod 32)
    done;
    Array.iter (fun o -> B.free b o) objs;
    v1_bytes (B.trace b)
  in
  let n = Bytes.length base in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (pair (int_range 0 (n - 1)) (int_range 0 255)))
        (int_range 0 n))
  in
  QCheck.Test.make ~name:"binfmt decode survives byte flips and truncation"
    ~count:500 (QCheck.make gen)
    (fun (flips, keep) ->
      let data = Bytes.sub base 0 keep in
      List.iter
        (fun (pos, v) ->
          if pos < keep then Bytes.set data pos (Char.chr v))
        flips;
      match (Columnar.read data, Columnar.read_lenient data) with
      | exception _ -> false
      | (Ok _ | Error _), (Ok _ | Error _) ->
        with_temp_file (fun path ->
            Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data);
            match Stream.length (Stream.of_binary_file path) with
            | _ | (exception Failure _) -> true
            | exception _ -> false))

(* ---- varint extremes ---- *)

(* The signed (zig-zag) varint must round-trip the full 63-bit [int]
   range: [zigzag min_int] has bit 62 set, so the unsigned encoder
   must not reject it as "negative" (it only looks negative after the
   shift) and the decoder must accept an accumulator whose top bit is
   set.  This was broken before [put_uvarint63]/[get_uvarint63]. *)
let varint_roundtrip n =
  let buf = Buffer.create 10 in
  Binfmt.put_varint buf n;
  let c = Binfmt.cursor (Prefix_util.Bigio.of_bytes (Buffer.to_bytes buf)) in
  match Binfmt.get_varint c with
  | Error e -> Alcotest.failf "varint %d: %s" n e
  | Ok n' ->
    Alcotest.(check int) (Printf.sprintf "varint %d" n) n n';
    Alcotest.(check int) "all bytes consumed" c.Binfmt.limit c.Binfmt.pos

let test_varint_extremes () =
  List.iter varint_roundtrip
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; max_int - 1; min_int + 1;
      1 lsl 62; -(1 lsl 62); 0x7fffffff; -0x80000000 ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"signed varint roundtrips the full int range" ~count:1000
    QCheck.(set_gen QCheck.Gen.int int)
    (fun n ->
      let buf = Buffer.create 10 in
      Binfmt.put_varint buf n;
      let c = Binfmt.cursor (Prefix_util.Bigio.of_bytes (Buffer.to_bytes buf)) in
      Binfmt.get_varint c = Ok n && c.Binfmt.pos = c.Binfmt.limit)

let test_event_int_extremes () =
  (* Whole events at the integer extremes, through the container (in
     1- and 2-event frames) and through the v1 row encoding a
     checkpoint's trace digest hashes, whose bytes are pinned: a change
     to them would refuse every existing checkpoint directory.  The
     rows' signed (delta-coded) fields — obj, site, ctx — span the full
     [int] range; sizes, offsets, threads and instruction counts are
     unsigned there, so their extreme is [max_int]. *)
  let es : Event.t list =
    [ Alloc { obj = max_int; site = max_int; ctx = max_int; size = max_int; thread = max_int };
      Access { obj = min_int; offset = max_int; write = true; thread = 0 };
      Alloc { obj = min_int; site = min_int; ctx = min_int; size = 0; thread = 0 };
      Realloc { obj = min_int; new_size = max_int; thread = 0 };
      Compute { instrs = max_int; thread = 1 };
      Free { obj = max_int; thread = max_int } ]
  in
  let t = Trace.of_list es in
  List.iter
    (fun frame_events ->
      match Columnar.read (Columnar.to_bytes ~frame_events (Packed.of_trace t)) with
      | Error e -> Alcotest.failf "frames of %d: %s" frame_events e
      | Ok p ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip, frames of %d" frame_events)
          true
          (Trace.to_list (Packed.to_trace p) = es))
    [ 1; 2 ];
  Alcotest.(check string) "v1 rows" "e15a920f0ed59bf23ba85615faa13013"
    (Digest.to_hex (Digest.bytes (v1_bytes t)))

(* ---- The framed layout ----

   Version 2 introduced the framed layout that the v3 container still
   carries: "FRME" frames holding an event count, the cumulative count
   and a CRC32 of the payload, then a checksummed "FEND" footer.  These
   tests run [Binfmt]'s own walks over v3 files with a payload callback
   that only counts events, so every fault below is caught by the
   framing, never by the columnar payload decoder. *)

let framed_input =
  lazy
    (let w = Prefix_workloads.Registry.find "libc" in
     Packed.of_trace (w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ()))

(* The header, then the strict walk; the events of each frame, in
   order. *)
let walk_strict data =
  let c = Binfmt.cursor (Prefix_util.Bigio.of_bytes data) in
  let frames = ref [] in
  Result.bind (Binfmt.check_header c) (fun version ->
      if version <> Columnar.version_columnar then
        Error (Printf.sprintf "version %d" version)
      else
        Binfmt.walk_frames c ~payload:(fun ~frame_off:_ ~pos:_ ~plen:_ ~events ->
            frames := events :: !frames;
            Ok ())
        |> Result.map (fun () -> List.rev !frames))

(* The header, then the lenient walk: lost ranges, events kept, frames
   kept, resynchronizations and the footer total. *)
let walk_lenient data =
  let c = Binfmt.cursor (Prefix_util.Bigio.of_bytes data) in
  match Binfmt.check_header c with
  | Error e -> Alcotest.fail e
  | Ok _ ->
    let kept = ref 0 in
    let lost, frames_ok, skipped, total =
      Binfmt.walk_frames_lenient c
        ~payload:(fun ~frame_off:_ ~pos:_ ~plen:_ ~events -> Ok events)
        ~keep:(fun events -> kept := !kept + events)
    in
    (lost, !kept, frames_ok, skipped, total)

(* The writer's frame partition is the one the strict walk reads back. *)
let test_framed_roundtrip_small_frames () =
  let p = Lazy.force framed_input in
  let total = Packed.length p in
  List.iter
    (fun frame_events ->
      let expected =
        List.init ((total + frame_events - 1) / frame_events) (fun k ->
            min frame_events (total - (k * frame_events)))
      in
      match walk_strict (Columnar.to_bytes ~frame_events p) with
      | Error e -> Alcotest.failf "frame_events %d: %s" frame_events e
      | Ok frames ->
        Alcotest.(check (list int)) (Printf.sprintf "frames of %d" frame_events) expected
          frames)
    [ 1; 7; 1000; 1_000_000 ]

let test_framed_strict_rejects_corruption () =
  let data = Columnar.to_bytes ~frame_events:1000 (Lazy.force framed_input) in
  let n = Bytes.length data in
  Alcotest.(check bool) "the clean file walks" true (Result.is_ok (walk_strict data));
  List.iter
    (fun pos ->
      let d = Bytes.copy data in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x01));
      match walk_strict d with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted a flipped byte at offset %d" pos)
    [ n / 4; n / 2; (3 * n) / 4 ];
  (* Losing the footer is also corruption for the strict walk. *)
  match walk_strict (Bytes.sub data 0 (n - 8)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated file"

(* Byte offsets of every frame marker, so corruption can be aimed at
   one specific frame. *)
let frame_offsets data =
  let n = Bytes.length data in
  let acc = ref [] in
  for p = n - 4 downto 0 do
    if Bytes.sub_string data p 4 = Binfmt.frame_marker then acc := p :: !acc
  done;
  !acc

let test_framed_lenient_exact_loss () =
  let p = Lazy.force framed_input in
  let total = Packed.length p in
  let frame_events = 1000 in
  let data = Columnar.to_bytes ~frame_events p in
  let offsets = frame_offsets data in
  let frames = List.length offsets in
  Alcotest.(check int) "frame count" ((total + frame_events - 1) / frame_events) frames;
  (* Corrupt exactly the k-th frame (a byte past its marker and header)
     and expect exactly its event range reported lost. *)
  List.iter
    (fun k ->
      let d = Bytes.copy data in
      let pos = List.nth offsets k + 24 in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x40));
      let lost, kept, frames_ok, skipped, footer = walk_lenient d in
      let lost_from = k * frame_events in
      let lost_to = min total ((k + 1) * frame_events) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "lost range of frame %d" k)
        [ (lost_from, lost_to) ]
        (List.map (fun (r : Binfmt.lost_range) -> (r.lost_from, r.lost_to)) lost);
      Alcotest.(check int) "events recovered" (total - (lost_to - lost_from)) kept;
      Alcotest.(check int) "frames ok" (frames - 1) frames_ok;
      Alcotest.(check int) "frames skipped" 1 skipped;
      Alcotest.(check (option int)) "footer total" (Some total) footer)
    [ 0; frames / 2; frames - 1 ]

let test_framed_lenient_truncation () =
  let data = Columnar.to_bytes ~frame_events:1000 (Lazy.force framed_input) in
  (* Cut mid-way: the tail (and the footer) are gone, so the total is
     unknowable and the surviving prefix is whole frames only. *)
  let _, kept, _, _, footer = walk_lenient (Bytes.sub data 0 (Bytes.length data / 2)) in
  Alcotest.(check (option int)) "no footer" None footer;
  Alcotest.(check int) "whole frames only" 0 (kept mod 1000);
  Alcotest.(check bool) "something recovered" true (kept > 0)

(* An input shorter than the magic names itself as such, in the header
   check and through both container readers. *)
let test_binfmt_empty_file_message () =
  List.iter
    (fun data ->
      let check what = function
        | Ok () -> Alcotest.failf "%s accepted %S" what (Bytes.to_string data)
        | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions truncation" what e)
            true
            (String.starts_with ~prefix:"empty or truncated file" e)
      in
      check "check_header"
        (Result.map ignore
           (Binfmt.check_header (Binfmt.cursor (Prefix_util.Bigio.of_bytes data))));
      check "read" (Result.map ignore (Columnar.read data));
      check "read_lenient" (Result.map ignore (Columnar.read_lenient data)))
    [ Bytes.create 0; Bytes.of_string "PF" ]

(* Frames of 512 events read as segments of 200: every frame start is a
   segment base, no segment exceeds 200 events, and each base is the
   running total. *)
let test_stream_of_binary_file_frame_boundaries () =
  let p = Lazy.force framed_input in
  let total = Packed.length p in
  let frame_events = 512 and segment_events = 200 in
  with_temp_file (fun path ->
      Columnar.write_file ~frame_events path p;
      let bases = ref [] and seen = ref 0 in
      Stream.iter_segments (Stream.of_binary_file ~segment_events path) (fun ~base seg ->
          Alcotest.(check int) "segment base is the running total" !seen base;
          if Packed.length seg > segment_events then
            Alcotest.failf "segment at %d holds %d events" base (Packed.length seg);
          bases := base :: !bases;
          seen := !seen + Packed.length seg);
      Alcotest.(check int) "all events streamed" total !seen;
      for k = 0 to (total - 1) / frame_events do
        if not (List.mem (k * frame_events) !bases) then
          Alcotest.failf "no segment starts at frame %d" k
      done)

let suite =
  [ ( "pruner",
      [ Alcotest.test_case "drops cold accesses" `Quick test_prune_drops_cold_accesses;
        Alcotest.test_case "caps runs" `Quick test_prune_caps_runs;
        Alcotest.test_case "config for hot" `Quick test_prune_config_for_hot ] );
    ( "binfmt",
      [ Alcotest.test_case "roundtrips workload traces" `Quick test_binfmt_roundtrip_workloads;
        Alcotest.test_case "compact vs text" `Quick test_binfmt_compact;
        Alcotest.test_case "rejects garbage" `Quick test_binfmt_rejects_garbage;
        Alcotest.test_case "file io" `Quick test_binfmt_file_io;
        QCheck_alcotest.to_alcotest prop_binfmt_roundtrip;
        QCheck_alcotest.to_alcotest prop_binfmt_decode_fuzz;
        Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
        QCheck_alcotest.to_alcotest prop_varint_roundtrip;
        Alcotest.test_case "events at int extremes" `Quick test_event_int_extremes ] );
    ( "binfmt-v2",
      [ Alcotest.test_case "framed roundtrip, small frames" `Quick
          test_framed_roundtrip_small_frames;
        Alcotest.test_case "strict read rejects corruption" `Quick
          test_framed_strict_rejects_corruption;
        Alcotest.test_case "lenient read pins the exact lost range" `Quick
          test_framed_lenient_exact_loss;
        Alcotest.test_case "lenient read of a truncated file" `Quick
          test_framed_lenient_truncation;
        Alcotest.test_case "empty file error message" `Quick
          test_binfmt_empty_file_message;
        Alcotest.test_case "of_binary_file cuts segments at frame boundaries"
          `Quick test_stream_of_binary_file_frame_boundaries ] ) ]
