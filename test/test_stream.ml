(* The bounded-memory streaming engine, tested differentially against
   the materialized paths it mirrors:

   - a streamed replay (Executor.run_stream_many, a fan-out of one) ≡
     Executor.run_packed (strict and lenient, on workload traces,
     injector-corrupted streams and arbitrary soup);
   - Trace_stats.analyze_stream ≡ Trace_stats.analyze_packed;
   - Detector over a stream ≡ Detector over the materialized trace;
   - Workload.generate_stream ≡ Workload.generate, for all 13 models;
   - the streaming container decoder round-trips.

   Streams are exercised with deliberately small, non-power-of-two
   segment sizes so every property crosses segment boundaries. *)

module Trace = Prefix_trace.Trace
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Trace_stats = Prefix_trace.Trace_stats
module Columnar = Prefix_trace.Columnar
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry
module Injector = Prefix_faults.Injector

let costs = Executor.default_config.costs

let baseline heap = Policy.baseline costs heap

let recovery_list (r : Executor.recovery) =
  [ r.double_allocs; r.unknown_accesses; r.unknown_frees; r.unknown_reallocs;
    r.invalid_sizes; r.policy_failures ]

let seg = 61 (* prime, small: every test crosses many segment boundaries *)

let check_same ~what ?mode ?heatmap_objs ?attribute trace =
  let packed =
    Executor.run_packed ?mode ?heatmap_objs ?attribute ~policy:baseline
      (Packed.of_trace trace)
  in
  let streamed =
    List.hd
      (Executor.run_stream_many ?mode ?heatmap_objs ?attribute ~policies:[ baseline ]
         (Stream.of_trace ~segment_events:seg trace))
  in
  Alcotest.(check bool) (what ^ ": metrics") true
    (streamed.Executor.metrics = packed.Executor.metrics);
  Alcotest.(check (list int)) (what ^ ": recovery")
    (recovery_list packed.Executor.recovery)
    (recovery_list streamed.Executor.recovery);
  (packed, streamed)

let workload_trace () =
  let wl = Registry.find "libc" in
  wl.generate ~scale:Workload.Profiling ~seed:7 ()

(* ---- segment plumbing ---- *)

let test_segment_bases () =
  let trace = workload_trace () in
  let n = Trace.length trace in
  let stream = Stream.of_trace ~segment_events:seg trace in
  let expected_base = ref 0 in
  Stream.iter_segments stream (fun ~base packed ->
      Alcotest.(check int) "bases are cumulative" !expected_base base;
      Alcotest.(check bool) "segments are full except the last" true
        (Packed.length packed = seg || base + Packed.length packed = n);
      expected_base := base + Packed.length packed);
  Alcotest.(check int) "segments cover the trace" n !expected_base;
  Alcotest.(check int) "length agrees" n (Stream.length stream);
  (* Streams are re-iterable: a second pass sees the same events. *)
  Alcotest.(check int) "re-iterable" n (Stream.length stream)

let test_roundtrips () =
  let trace = workload_trace () in
  let via_trace = Stream.to_trace (Stream.of_trace ~segment_events:seg trace) in
  Alcotest.(check bool) "of_trace/to_trace" true
    (Trace.to_list via_trace = Trace.to_list trace);
  let packed = Packed.of_trace trace in
  let via_packed = Stream.to_packed (Stream.of_packed ~segment_events:seg packed) in
  Alcotest.(check bool) "of_packed/to_packed" true
    (Trace.to_list (Packed.to_trace via_packed) = Trace.to_list trace)

(* A trace that fits in one segment is emitted as itself: the
   materialized harness path replays straight off the packed arrays. *)
let test_of_packed_one_segment () =
  let packed = Packed.of_trace (workload_trace ()) in
  let n = Packed.length packed in
  let emitted segment_events =
    let segs = ref [] in
    Stream.iter_segments (Stream.of_packed ~segment_events packed) (fun ~base seg ->
        segs := (base, seg) :: !segs);
    !segs
  in
  List.iter
    (fun segment_events ->
      match emitted segment_events with
      | [ (0, seg) ] -> Alcotest.(check bool) "the trace itself" true (seg == packed)
      | _ -> Alcotest.fail "expected exactly one segment")
    [ n; n + 1 ];
  Alcotest.(check int) "split when larger than a segment" 2
    (List.length (emitted (n - 1)))

(* ---- executor differential ---- *)

let test_strict_workload () =
  ignore (check_same ~what:"libc strict" (workload_trace ()))

let test_lenient_workload () =
  let _, streamed =
    check_same ~what:"libc lenient" ~mode:Policy.Lenient (workload_trace ())
  in
  Alcotest.(check int) "nothing recovered" 0
    (Executor.recovery_total streamed.Executor.recovery)

let test_heatmap_attribution () =
  (* Snapshot timing and heatmap time both key off the *global* event
     index, which only a correct [base] threading preserves across
     segments. *)
  let trace = workload_trace () in
  let packed, streamed =
    check_same ~what:"diagnostics" ~heatmap_objs:(fun obj -> obj mod 2 = 0)
      ~attribute:true trace
  in
  let render_hm = function
    | Some hm -> Prefix_cachesim.Heatmap.render hm
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

let test_lenient_corrupted_every_kind () =
  let trace = workload_trace () in
  List.iter
    (fun kind ->
      List.iter
        (fun fault_seed ->
          let corrupted = Injector.inject kind ~seed:fault_seed ~rate:0.05 trace in
          ignore
            (check_same
               ~what:(Printf.sprintf "%s/seed %d" (Injector.kind_name kind) fault_seed)
               ~mode:Policy.Lenient corrupted))
        [ 0; 1; 2 ])
    Injector.all_kinds

let soup_gen =
  QCheck.Gen.(
    let ev =
      oneof
        [ (fun st ->
            (Event.Alloc
               { obj = int_range 0 30 st; site = int_range 1 5 st;
                 ctx = int_range 1 5 st; size = int_range (-8) 128 st;
                 thread = int_range 0 2 st } : Event.t));
          (fun st ->
            Event.Access
              { obj = int_range 0 30 st; offset = int_range 0 127 st; write = bool st;
                thread = int_range 0 2 st });
          (fun st -> Event.Free { obj = int_range 0 30 st; thread = int_range 0 2 st });
          (fun st ->
            Event.Realloc
              { obj = int_range 0 30 st; new_size = int_range (-8) 256 st;
                thread = int_range 0 2 st });
          (fun st ->
            Event.Compute { instrs = int_range 1 50 st; thread = int_range 0 2 st }) ]
    in
    pair (list_size (int_range 0 300) ev) (int_range 1 64))

let prop_lenient_soup =
  QCheck.Test.make ~name:"run_stream ≡ run_packed on arbitrary lenient replays"
    ~count:300 (QCheck.make soup_gen)
    (fun (es, segment_events) ->
      let trace = Trace.of_list es in
      let packed =
        Executor.run_packed ~mode:Policy.Lenient ~policy:baseline (Packed.of_trace trace)
      in
      let streamed =
        List.hd
          (Executor.run_stream_many ~mode:Policy.Lenient ~policies:[ baseline ]
             (Stream.of_trace ~segment_events trace))
      in
      streamed.Executor.metrics = packed.Executor.metrics
      && recovery_list streamed.Executor.recovery = recovery_list packed.Executor.recovery)

let prop_strict_raises_same =
  QCheck.Test.make ~name:"run_stream ≡ run_packed on strict anomaly detection"
    ~count:200 (QCheck.make soup_gen)
    (fun (es, segment_events) ->
      let trace = Trace.of_list es in
      let outcome_of run =
        match run () with
        | (o : Executor.outcome) -> Ok o.Executor.metrics
        | exception Invalid_argument m -> Error m
      in
      let packed =
        outcome_of (fun () -> Executor.run_packed ~policy:baseline (Packed.of_trace trace))
      in
      let streamed =
        outcome_of (fun () ->
            List.hd
              (Executor.run_stream_many ~policies:[ baseline ]
                 (Stream.of_trace ~segment_events trace)))
      in
      streamed = packed)

(* ---- analysis differential ---- *)

let stats_fingerprint s =
  ( Trace_stats.objects s,
    Trace_stats.sites s,
    Trace_stats.total_heap_accesses s,
    Trace_stats.max_live_objects s,
    Trace_stats.reused_ids s,
    Trace_stats.trace_length s )

let test_analyze_stream_workload () =
  let trace = workload_trace () in
  let materialized = Trace_stats.analyze_packed (Packed.of_trace trace) in
  let streamed = Trace_stats.analyze_stream (Stream.of_trace ~segment_events:seg trace) in
  Alcotest.(check bool) "identical statistics" true
    (stats_fingerprint streamed = stats_fingerprint materialized)

let prop_analyze_stream_soup =
  QCheck.Test.make ~name:"analyze_stream ≡ analyze_packed on arbitrary traces"
    ~count:300 (QCheck.make soup_gen)
    (fun (es, segment_events) ->
      let trace = Trace.of_list es in
      stats_fingerprint (Trace_stats.analyze_stream (Stream.of_trace ~segment_events trace))
      = stats_fingerprint (Trace_stats.analyze_packed (Packed.of_trace trace)))

let test_analyze_stream_corrupted () =
  let trace = workload_trace () in
  List.iter
    (fun kind ->
      let corrupted = Injector.inject kind ~seed:1 ~rate:0.05 trace in
      Alcotest.(check bool)
        (Injector.kind_name kind ^ ": identical statistics")
        true
        (stats_fingerprint
           (Trace_stats.analyze_stream (Stream.of_trace ~segment_events:seg corrupted))
        = stats_fingerprint (Trace_stats.analyze_packed (Packed.of_trace corrupted))))
    Injector.all_kinds

let test_detector_stream () =
  let trace = workload_trace () in
  let stats = Trace_stats.analyze trace in
  let seq = Detector.hot_sequence stats trace in
  let seq' =
    Detector.hot_sequence_stream stats (Stream.of_trace ~segment_events:seg trace)
  in
  Alcotest.(check (array int)) "hot sequences equal" seq seq';
  let objs hs = List.map Hds.objs hs in
  Alcotest.(check bool) "detected streams equal" true
    (objs (Detector.detect_stream stats (Stream.of_trace ~segment_events:seg trace))
    = objs (Detector.detect_with_stats stats trace))

(* ---- workload generation differential ---- *)

let test_generate_stream_all_workloads () =
  (* Every model, Profiling scale: the push-based stream must emit
     event-for-event what the materializing generator records. *)
  List.iter
    (fun name ->
      let wl = Registry.find name in
      let trace = wl.generate ~scale:Workload.Profiling ~seed:7 () in
      let stream =
        Workload.generate_stream wl ~scale:Workload.Profiling ~seed:7
          ~segment_events:997 ()
      in
      Alcotest.(check bool) (name ^ ": identical events") true
        (Trace.to_list (Stream.to_trace stream) = Trace.to_list trace))
    Registry.names

let test_generate_stream_threaded () =
  let wl = Registry.find "mcf" in
  let trace = wl.generate ~threads:3 ~scale:Workload.Profiling ~seed:7 () in
  let stream =
    Workload.generate_stream wl ~threads:3 ~scale:Workload.Profiling ~seed:7 ()
  in
  Alcotest.(check bool) "threads reach the fill" true
    (Trace.to_list (Stream.to_trace stream) = Trace.to_list trace)

let test_huge_tier () =
  Alcotest.(check int) "profiling is base/8" 10
    (Workload.iterations Workload.Profiling ~base:80);
  Alcotest.(check int) "long is base" 80 (Workload.iterations Workload.Long ~base:80);
  Alcotest.(check int) "huge is 10x long" 800
    (Workload.iterations Workload.Huge ~base:80);
  Alcotest.(check int) "profiling never degenerates" 1
    (Workload.iterations Workload.Profiling ~base:4);
  Alcotest.(check string) "scale name" "huge" (Workload.scale_name Workload.Huge)

(* ---- streaming file decoders ---- *)

let with_temp_file suffix body =
  let path = Filename.temp_file "prefix_stream" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> body path)

let test_binary_file_stream () =
  let trace = workload_trace () in
  with_temp_file ".pfxt" @@ fun path ->
  Columnar.write_file path (Packed.of_trace trace);
  let stream = Stream.of_binary_file ~segment_events:seg path in
  Alcotest.(check bool) "binary round-trip" true
    (Trace.to_list (Stream.to_trace stream) = Trace.to_list trace);
  (* The whole-file reader must agree with the stream. *)
  let via_read = Result.get_ok (Columnar.read_file path) in
  Alcotest.(check int) "lengths agree" (Packed.length via_read) (Stream.length stream)

let test_binary_file_stream_truncated () =
  let trace = workload_trace () in
  with_temp_file ".pfxt" @@ fun path ->
  Columnar.write_file path (Packed.of_trace trace);
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 7));
  close_out oc;
  match Stream.length (Stream.of_binary_file path) with
  | _ -> Alcotest.fail "accepted a truncated file"
  | exception Failure _ -> ()

let suite =
  [ ( "stream",
      [ Alcotest.test_case "segment bases" `Quick test_segment_bases;
        Alcotest.test_case "round-trips" `Quick test_roundtrips;
        Alcotest.test_case "of_packed emits one segment as itself" `Quick
          test_of_packed_one_segment;
        Alcotest.test_case "strict workload" `Quick test_strict_workload;
        Alcotest.test_case "lenient workload" `Quick test_lenient_workload;
        Alcotest.test_case "heatmap + attribution" `Quick test_heatmap_attribution;
        Alcotest.test_case "corrupted traces" `Quick test_lenient_corrupted_every_kind;
        QCheck_alcotest.to_alcotest prop_lenient_soup;
        QCheck_alcotest.to_alcotest prop_strict_raises_same;
        Alcotest.test_case "analyze_stream workload" `Quick test_analyze_stream_workload;
        QCheck_alcotest.to_alcotest prop_analyze_stream_soup;
        Alcotest.test_case "analyze_stream corrupted" `Quick test_analyze_stream_corrupted;
        Alcotest.test_case "detector over streams" `Quick test_detector_stream;
        Alcotest.test_case "generate_stream ≡ generate" `Quick
          test_generate_stream_all_workloads;
        Alcotest.test_case "generate_stream threaded" `Quick test_generate_stream_threaded;
        Alcotest.test_case "huge tier" `Quick test_huge_tier;
        Alcotest.test_case "binary file stream" `Quick test_binary_file_stream;
        Alcotest.test_case "binary truncated" `Quick test_binary_file_stream_truncated ] ) ]
