(* Tests for the columnar (v3) trace container:

   - round-trip: packed -> columnar bytes -> packed is the identity,
     for workload traces, injector-corrupted traces (negative values),
     hand-built extremes (min_int/max_int) and qcheck event soup;
   - replay equivalence: a fan-out of one over a spooled columnar file
     produces the same outcome as one over the original packed trace as
     a single segment — strict, lenient, every injector fault kind, and
     strict-raise parity;
   - corruption: the strict reader rejects (never raises on) byte
     flips and truncations; the lenient reader pins the exact lost
     event range; a v2 file is refused;
   - [Stream.of_binary_file] reads the v3 container and cuts segments
     at frame boundaries. *)

open Prefix_trace
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Injector = Prefix_faults.Injector

let costs = Executor.default_config.costs

let baseline heap = Policy.baseline costs heap

let workload_trace () =
  let wl = Prefix_workloads.Registry.find "libc" in
  wl.generate ~scale:Profiling ~seed:7 ()

(* Column-by-column equality (metadata-free, so views and copies
   compare equal). *)
let check_packed_equal name (a : Packed.t) (b : Packed.t) =
  Alcotest.(check int) (name ^ ": length") (Packed.length a) (Packed.length b);
  for i = 0 to Packed.length a - 1 do
    if Packed.get a i <> Packed.get b i then
      Alcotest.failf "%s: event %d differs: %s vs %s" name i
        (Event.to_string (Packed.get a i))
        (Event.to_string (Packed.get b i))
  done

let roundtrip name ?frame_events p =
  match Columnar.read (Columnar.to_bytes ?frame_events p) with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok p' -> check_packed_equal name p p'

(* ---- round-trip ---- *)

let test_roundtrip_workloads () =
  List.iter
    (fun name ->
      let w = Prefix_workloads.Registry.find name in
      let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      roundtrip name (Packed.of_trace trace))
    [ "mcf"; "libc"; "swissmap" ]

let test_roundtrip_small_frames () =
  let p = Packed.of_trace (workload_trace ()) in
  List.iter
    (fun frame_events ->
      roundtrip (Printf.sprintf "frames of %d" frame_events) ~frame_events p)
    [ 1; 7; 1000; 1_000_000 ]

let test_roundtrip_empty () =
  roundtrip "empty" (Packed.of_trace (Trace.of_list []))

let test_roundtrip_corrupted_every_kind () =
  (* Fault-injected traces carry negative sizes/offsets and colliding
     ids — every value column must round-trip them. *)
  let trace = workload_trace () in
  List.iter
    (fun kind ->
      let corrupted = Injector.inject kind ~seed:3 ~rate:0.1 trace in
      roundtrip (Injector.kind_name kind) (Packed.of_trace corrupted))
    Injector.all_kinds

let test_roundtrip_int_extremes () =
  let es : Event.t list =
    [ Alloc { obj = max_int; site = max_int; ctx = max_int; size = max_int; thread = max_int };
      Access { obj = max_int; offset = max_int; write = true; thread = max_int };
      Alloc { obj = min_int; site = min_int; ctx = min_int; size = min_int; thread = min_int };
      Access { obj = min_int; offset = min_int; write = false; thread = min_int };
      Realloc { obj = min_int; new_size = min_int; thread = 0 };
      Realloc { obj = max_int; new_size = max_int; thread = 0 };
      Compute { instrs = max_int; thread = 1 };
      Compute { instrs = min_int; thread = -1 };
      Free { obj = min_int; thread = min_int };
      Free { obj = max_int; thread = max_int } ]
  in
  roundtrip "int extremes" (Packed.of_trace (Trace.of_list es));
  roundtrip "int extremes, 1-event frames" ~frame_events:1
    (Packed.of_trace (Trace.of_list es))

let soup_gen =
  QCheck.Gen.(
    let ev =
      oneof
        [ (fun st ->
            (Event.Alloc
               { obj = int_range (-50) 50 st; site = int_range (-5) 5 st;
                 ctx = int_range (-5) 5 st; size = int_range (-200) 200 st;
                 thread = int_range (-2) 2 st } : Event.t));
          (fun st ->
            Event.Access
              { obj = int_range (-50) 50 st; offset = int_range (-200) 200 st;
                write = bool st; thread = int_range (-2) 2 st });
          (fun st -> Event.Free { obj = int_range (-50) 50 st; thread = int_range (-2) 2 st });
          (fun st ->
            Event.Realloc
              { obj = int_range (-50) 50 st; new_size = int_range (-200) 200 st;
                thread = int_range (-2) 2 st });
          (fun st ->
            Event.Compute { instrs = int_range (-100) 100 st; thread = int_range (-2) 2 st }) ]
    in
    list_size (int_range 0 400) ev)

let prop_roundtrip_soup =
  QCheck.Test.make ~name:"columnar roundtrips arbitrary event soup" ~count:300
    (QCheck.make soup_gen)
    (fun es ->
      let t = Trace.of_list es in
      match Columnar.read (Columnar.to_bytes ~frame_events:64 (Packed.of_trace t)) with
      | Ok p -> Packed.to_trace p |> Trace.to_list = es
      | Error _ -> false)

let test_compact_vs_rows () =
  let trace = workload_trace () in
  let rows = Bytes.length (Golden_decode.v1_file trace) in
  let v3 = Bytes.length (Columnar.to_bytes (Packed.of_trace trace)) in
  Alcotest.(check bool)
    (Printf.sprintf "columnar (%d B) smaller than the v1 rows (%d B)" v3 rows)
    true (v3 < rows)

(* ---- replay equivalence over the file path ---- *)

let with_columnar_file ?frame_events p k =
  let path = Filename.temp_file "prefix_columnar" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file ?frame_events path p;
      k path)

let check_stream_same ~what ?mode ?heatmap_objs ?attribute trace =
  let p = Packed.of_trace trace in
  let packed = Replay.one ?mode ?heatmap_objs ?attribute ~policy:baseline (Replay.whole p) in
  let streamed =
    with_columnar_file ~frame_events:700 p (fun path ->
        Replay.one ?mode ?heatmap_objs ?attribute ~policy:baseline
          (Stream.of_binary_file path))
  in
  Alcotest.(check bool) (what ^ ": metrics") true
    (packed.Executor.metrics = streamed.Executor.metrics);
  Alcotest.(check bool) (what ^ ": recovery") true
    (packed.Executor.recovery = streamed.Executor.recovery);
  (packed, streamed)

let test_stream_replay_strict () =
  ignore (check_stream_same ~what:"libc strict" (workload_trace ()))

let test_stream_replay_lenient_corrupted () =
  let trace = workload_trace () in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let corrupted = Injector.inject kind ~seed ~rate:0.05 trace in
          ignore
            (check_stream_same
               ~what:(Printf.sprintf "%s/seed %d" (Injector.kind_name kind) seed)
               ~mode:Policy.Lenient corrupted))
        [ 0; 1 ])
    Injector.all_kinds

let test_stream_replay_diagnostics () =
  let trace = workload_trace () in
  let packed, streamed =
    check_stream_same ~what:"diagnostics" ~heatmap_objs:(fun obj -> obj mod 2 = 0)
      ~attribute:true trace
  in
  let render_hm = function
    | Some hm ->
      Printf.sprintf "%d samples, %d bytes" (Prefix_cachesim.Heatmap.samples hm)
        (Prefix_cachesim.Heatmap.footprint_bytes hm)
    | None -> "none"
  in
  Alcotest.(check string) "heatmap" (render_hm packed.Executor.heatmap)
    (render_hm streamed.Executor.heatmap);
  let render_at = function
    | Some a -> Prefix_runtime.Attribution.render a
    | None -> "none"
  in
  Alcotest.(check string) "attribution" (render_at packed.Executor.attribution)
    (render_at streamed.Executor.attribution)

let prop_stream_strict_raises_same =
  QCheck.Test.make ~name:"columnar stream ≡ packed on strict anomaly detection"
    ~count:60 (QCheck.make soup_gen)
    (fun es ->
      let trace = Trace.of_list es in
      let p = Packed.of_trace trace in
      let outcome_of run =
        match run () with
        | (o : Executor.outcome) -> Ok o.Executor.metrics
        | exception Invalid_argument m -> Error m
      in
      let packed = outcome_of (fun () -> Replay.one ~policy:baseline (Replay.whole p)) in
      let streamed =
        with_columnar_file ~frame_events:64 p (fun path ->
            outcome_of (fun () -> Replay.one ~policy:baseline (Stream.of_binary_file path)))
      in
      packed = streamed)

(* ---- corruption ---- *)

let test_strict_rejects_corruption () =
  let p = Packed.of_trace (workload_trace ()) in
  let data = Columnar.to_bytes ~frame_events:1000 p in
  let n = Bytes.length data in
  List.iter
    (fun pos ->
      let d = Bytes.copy data in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x01));
      match Columnar.read d with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted a flipped byte at offset %d" pos)
    [ n / 4; n / 2; (3 * n) / 4 ];
  match Columnar.read (Bytes.sub data 0 (n - 8)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated file"

let prop_decode_fuzz =
  let base = Columnar.to_bytes ~frame_events:256 (Packed.of_trace (workload_trace ())) in
  let n = Bytes.length base in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (pair (int_range 0 (n - 1)) (int_range 0 255)))
        (int_range 0 n))
  in
  QCheck.Test.make ~name:"columnar decode survives byte flips and truncation"
    ~count:500 (QCheck.make gen)
    (fun (flips, keep) ->
      let data = Bytes.sub base 0 keep in
      List.iter (fun (pos, v) -> if pos < keep then Bytes.set data pos (Char.chr v)) flips;
      match (Columnar.read data, Columnar.read_lenient data) with
      | (Ok _ | Error _), (Ok _ | Error _) -> true
      | exception _ -> false)

let frame_offsets data =
  let n = Bytes.length data in
  let acc = ref [] in
  for p = n - 4 downto 0 do
    if Bytes.sub_string data p 4 = "FRME" then acc := p :: !acc
  done;
  !acc

let test_lenient_exact_loss () =
  let trace = workload_trace () in
  let total = Trace.length trace in
  let frame_events = 1000 in
  let data = Columnar.to_bytes ~frame_events (Packed.of_trace trace) in
  let offsets = frame_offsets data in
  let frames = List.length offsets in
  Alcotest.(check int) "frame count"
    ((total + frame_events - 1) / frame_events)
    frames;
  List.iter
    (fun k ->
      let d = Bytes.copy data in
      let pos = List.nth offsets k + 24 in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x40));
      match Columnar.read_lenient d with
      | Error e -> Alcotest.fail e
      | Ok l ->
        let lost_from = k * frame_events in
        let lost_to = min total ((k + 1) * frame_events) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "lost range of frame %d" k)
          [ (lost_from, lost_to) ]
          (List.map
             (fun (r : Binfmt.lost_range) -> (r.lost_from, r.lost_to))
             l.Columnar.cl_lost);
        Alcotest.(check int) "events lost" (lost_to - lost_from)
          (Columnar.lenient_events_lost l);
        Alcotest.(check int) "events recovered"
          (total - (lost_to - lost_from))
          (Packed.length l.Columnar.cl_packed);
        Alcotest.(check int) "frames ok" (frames - 1) l.Columnar.cl_frames_ok;
        Alcotest.(check int) "frames skipped" 1 l.Columnar.cl_frames_skipped;
        Alcotest.(check (option int)) "footer total" (Some total)
          l.Columnar.cl_total_events)
    [ 0; frames / 2; frames - 1 ]

let test_lenient_truncation () =
  let trace = workload_trace () in
  let data = Columnar.to_bytes ~frame_events:1000 (Packed.of_trace trace) in
  match Columnar.read_lenient (Bytes.sub data 0 (Bytes.length data / 2)) with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check (option int)) "no footer" None l.Columnar.cl_total_events;
    Alcotest.(check int) "whole frames only" 0
      (Packed.length l.Columnar.cl_packed mod 1000);
    Alcotest.(check bool) "something recovered" true
      (Packed.length l.Columnar.cl_packed > 0)

let test_rejects_v2_version () =
  (* A v2 file shares the magic and the framing but not the payload. *)
  match Columnar.read (Golden_decode.v2_file ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "columnar reader accepted a v2 file"

(* ---- stream integration ---- *)

let test_stream_of_binary_file_frame_boundaries () =
  let trace = workload_trace () in
  let total = Trace.length trace in
  let frame_events = 512 in
  with_columnar_file ~frame_events (Packed.of_trace trace) (fun path ->
      Alcotest.(check (result int string)) "version" (Ok 3)
        (Binfmt.check_header (Binfmt.cursor (Prefix_util.Bigio.load path)));
      let stream = Stream.of_binary_file ~segment_events:frame_events path in
      let seen = ref 0 in
      Stream.iter_segments stream (fun ~base seg ->
          Alcotest.(check int) "segment starts on a frame boundary" 0
            (base mod frame_events);
          Alcotest.(check int) "segment base is the running total" !seen base;
          seen := !seen + Packed.length seg);
      Alcotest.(check int) "all events streamed" total !seen;
      (* Re-iteration observes identical events (streams are re-iterable). *)
      let t2 = Stream.to_trace (Stream.of_binary_file path) in
      check_packed_equal "re-read" (Packed.of_trace trace) (Packed.of_trace t2))

let test_to_columnar_file_roundtrip () =
  let trace = workload_trace () in
  let path = Filename.temp_file "prefix_spool" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Stream.to_columnar_file (Stream.of_trace ~segment_events:333 trace) path;
      match Columnar.read_file path with
      | Error e -> Alcotest.fail e
      | Ok p -> check_packed_equal "spooled" (Packed.of_trace trace) p)

let suite =
  [ ( "columnar",
      [ Alcotest.test_case "roundtrips workload traces" `Quick test_roundtrip_workloads;
        Alcotest.test_case "roundtrip, small frames" `Quick test_roundtrip_small_frames;
        Alcotest.test_case "roundtrip, empty trace" `Quick test_roundtrip_empty;
        Alcotest.test_case "roundtrips every fault kind" `Quick
          test_roundtrip_corrupted_every_kind;
        Alcotest.test_case "roundtrips int extremes" `Quick test_roundtrip_int_extremes;
        QCheck_alcotest.to_alcotest prop_roundtrip_soup;
        Alcotest.test_case "smaller than the v1 rows" `Quick test_compact_vs_rows;
        Alcotest.test_case "rejects v2 input" `Quick test_rejects_v2_version ] );
    ( "columnar-replay",
      [ Alcotest.test_case "streamed replay ≡ packed, strict" `Quick
          test_stream_replay_strict;
        Alcotest.test_case "streamed replay ≡ packed, corrupted traces" `Quick
          test_stream_replay_lenient_corrupted;
        Alcotest.test_case "streamed replay ≡ packed, diagnostics" `Quick
          test_stream_replay_diagnostics;
        QCheck_alcotest.to_alcotest prop_stream_strict_raises_same ] );
    ( "columnar-corruption",
      [ Alcotest.test_case "strict read rejects corruption" `Quick
          test_strict_rejects_corruption;
        QCheck_alcotest.to_alcotest prop_decode_fuzz;
        Alcotest.test_case "lenient read pins the exact lost range" `Quick
          test_lenient_exact_loss;
        Alcotest.test_case "lenient read of a truncated file" `Quick
          test_lenient_truncation;
        Alcotest.test_case "of_binary_file auto-detects v3 and cuts at frames"
          `Quick test_stream_of_binary_file_frame_boundaries;
        Alcotest.test_case "to_columnar_file spools a readable container" `Quick
          test_to_columnar_file_roundtrip ] ) ]
