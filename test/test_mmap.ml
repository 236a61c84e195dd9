(* Tests for the mapped-bytes decode path and the replay pipeline:

   - [Bigio]: mapped and read-fallback loads are byte-identical, empty
     files yield the empty region, slicing is bounds-checked (also
     against slices whose end wraps around);
   - the one decoder: a golden corpus pins every strict, [read] and
     lenient outcome on clean, truncated and byte-flipped v1/v2/v3
     containers, and [Stream.of_binary_file] segments concatenate to
     the trace and cut at every frame boundary;
   - pipeline equivalence: [Stream.prefetched] emits its inner
     stream's exact segment sequence, and a fan-out of N policies
     ([Executor.run_stream_many]) matches N fan-outs of one
     outcome-for-outcome. *)

open Prefix_trace
module Bigio = Prefix_util.Bigio
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy

let costs = Executor.default_config.costs

let baseline heap = Policy.baseline costs heap

let workload_trace () =
  let wl = Prefix_workloads.Registry.find "libc" in
  wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ()

let with_file data k =
  let path = Filename.temp_file "prefix_mmap" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      k path)

(* ---- Bigio ---- *)

let test_bigio_load_equivalence () =
  let data = Binfmt.to_bytes_framed (workload_trace ()) in
  with_file data (fun path ->
      let mapped = Bigio.load path in
      let copied = Bigio.load ~mmap:false path in
      Alcotest.(check int) "mapped length" (Bytes.length data) (Bigio.length mapped);
      Alcotest.(check int) "copied length" (Bytes.length data) (Bigio.length copied);
      Alcotest.(check bytes) "mapped bytes" data (Bigio.to_bytes mapped);
      Alcotest.(check bytes) "copied bytes" data (Bigio.to_bytes copied))

let test_bigio_empty () =
  with_file Bytes.empty (fun path ->
      Alcotest.(check int) "mapped empty" 0 (Bigio.length (Bigio.load path));
      Alcotest.(check int) "copied empty" 0
        (Bigio.length (Bigio.load ~mmap:false path)))

let test_bigio_sub_string () =
  with_file (Bytes.of_string "hello, mapping") (fun path ->
      List.iter
        (fun mmap ->
          let b = Bigio.load ~mmap path in
          Alcotest.(check string) "slice" "lo, map" (Bigio.sub_string b ~pos:3 ~len:7);
          Alcotest.(check char) "get" 'h' (Bigio.get b 0);
          List.iter
            (fun (pos, len) ->
              match Bigio.sub_string b ~pos ~len with
              | _ -> Alcotest.failf "slice (%d, %d) out of bounds accepted" pos len
              | exception Invalid_argument _ -> ())
            [ (-1, 2); (0, 15); (14, 1); (7, max_int) ])
        [ true; false ])

(* [pos + len] wraps around for a slice starting near [max_int]; the
   bounds check must not, or the copy reads far outside the mapping. *)
let test_bigio_sub_string_wrapping () =
  with_file (Bytes.of_string "hello, mapping") (fun path ->
      let b = Bigio.load path in
      match Bigio.sub_string b ~pos:(max_int - 2) ~len:5 with
      | _ -> Alcotest.fail "wrapping slice accepted"
      | exception Invalid_argument _ -> ())

let test_bigio_missing_file () =
  match Bigio.load "/nonexistent/prefix-bigio-test" with
  | _ -> Alcotest.fail "loaded a nonexistent file"
  | exception Sys_error _ -> ()

(* ---- the one decoder ---- *)

let test_golden_decode () =
  let rows = Golden_decode.rows () in
  let got = String.concat "" (List.map (fun (r : Golden_decode.row) -> r.line ^ "\n") rows) in
  let ic = open_in_bin "golden_decode.expected" in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "decode golden" expected got;
  List.iter
    (fun (r : Golden_decode.row) ->
      match r.read_error with
      | Some m when Some m <> r.strict_error ->
        Alcotest.failf "%s: read reports %S, the streaming decoder %s" r.line m
          (match r.strict_error with Some e -> Printf.sprintf "%S" e | None -> "accepts")
      | _ -> ())
    rows

let test_big_version () =
  let trace = workload_trace () in
  List.iter
    (fun (what, data, version) ->
      with_file data (fun path ->
          Alcotest.(check (result int string)) what (Ok version)
            (Binfmt.big_version (Bigio.load path))))
    [ ("v1", Binfmt.to_bytes trace, Binfmt.version);
      ("v2", Binfmt.to_bytes_framed trace, Binfmt.version_framed);
      ( "v3",
        Columnar.to_bytes (Packed.of_trace trace),
        Columnar.version_columnar ) ]

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
    list_size (int_range 0 300) ev)

(* The v2 writer encodes ids/sizes as unsigned varints, so feed it
   non-negative soup (the signed extremes are covered by the columnar
   round-trip tests). *)
let unsigned_soup_gen =
  QCheck.Gen.(
    let ev =
      oneof
        [ (fun st ->
            (Event.Alloc
               { obj = int_range 0 50 st; site = int_range 0 5 st;
                 ctx = int_range 0 5 st; size = int_range 1 200 st;
                 thread = int_range 0 2 st } : Event.t));
          (fun st ->
            Event.Access
              { obj = int_range 0 50 st; offset = int_range 0 200 st;
                write = bool st; thread = int_range 0 2 st });
          (fun st -> Event.Free { obj = int_range 0 50 st; thread = int_range 0 2 st });
          (fun st ->
            Event.Realloc
              { obj = int_range 0 50 st; new_size = int_range 1 200 st;
                thread = int_range 0 2 st });
          (fun st ->
            Event.Compute { instrs = int_range 0 100 st; thread = int_range 0 2 st }) ]
    in
    list_size (int_range 0 300) ev)

(* [of_binary_file]'s segmentation contract on 48-event frames read as
   64-event segments: the segments concatenate to the trace, none
   exceeds its declared size, and every frame boundary is a cut. *)
let prop_stream_segments =
  QCheck.Test.make
    ~name:"of_binary_file segments the trace at frame cuts (v2 and v3)" ~count:120
    (QCheck.make unsigned_soup_gen)
    (fun es ->
      let trace = Trace.of_list es in
      let frame_starts = List.init ((List.length es + 47) / 48) (fun k -> 48 * k) in
      let ok data =
        with_file data (fun path ->
            let segs = ref [] in
            Stream.iter_segments (Stream.of_binary_file ~segment_events:64 path)
              (fun ~base seg -> segs := (base, Trace.to_list (Packed.to_trace seg)) :: !segs);
            let segs = List.rev !segs in
            let bases = List.map fst segs in
            List.concat_map snd segs = es
            && List.for_all (fun (_, seg) -> List.length seg <= 64) segs
            && List.for_all (fun b -> List.mem b bases) frame_starts)
      in
      ok (Binfmt.to_bytes_framed ~frame_events:48 trace)
      && ok (Columnar.to_bytes ~frame_events:48 (Packed.of_trace trace)))

(* ---- pipeline equivalence ---- *)

let test_prefetched_segments () =
  let trace = workload_trace () in
  let stream = Stream.of_trace ~segment_events:700 trace in
  let collect s =
    let acc = ref [] in
    Stream.iter_segments s (fun ~base seg ->
        acc := (base, Trace.to_list (Packed.to_trace seg)) :: !acc);
    List.rev !acc
  in
  let plain = collect stream in
  let pre = Stream.prefetched stream in
  Alcotest.(check bool) "same segments" true (collect pre = plain);
  (* Re-iteration spawns a fresh producer; the hand-off scratch must not
     leak state between passes. *)
  Alcotest.(check bool) "same segments on re-iteration" true (collect pre = plain)

let test_prefetched_replay_equal () =
  let p = Packed.of_trace (workload_trace ()) in
  let path = Filename.temp_file "prefix_prefetch" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file path p;
      let replay s = List.hd (Executor.run_stream_many ~policies:[ baseline ] s) in
      let plain = replay (Stream.of_binary_file path) in
      let pre = replay (Stream.prefetched (Stream.of_binary_file path)) in
      Alcotest.(check bool) "metrics" true
        (plain.Executor.metrics = pre.Executor.metrics);
      Alcotest.(check bool) "recovery" true
        (plain.Executor.recovery = pre.Executor.recovery))

let test_prefetched_consumer_abort () =
  let stream = Stream.of_trace ~segment_events:100 (workload_trace ()) in
  let pre = Stream.prefetched stream in
  (match
     Stream.iter_segments pre (fun ~base:_ _ -> failwith "consumer bails")
   with
  | () -> Alcotest.fail "consumer exception swallowed"
  | exception Failure m -> Alcotest.(check string) "re-raised" "consumer bails" m);
  (* The stream stays usable after an aborted pass. *)
  let n = ref 0 in
  Stream.iter_segments pre (fun ~base:_ seg -> n := !n + Packed.length seg);
  Alcotest.(check int) "events after abort" (Trace.length (workload_trace ())) !n

let six_policies () =
  let trace = workload_trace () in
  let stats = Trace_stats.analyze_packed (Packed.of_trace trace) in
  let cls = Policy.no_classification in
  let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats trace in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats trace in
  let plan v = Prefix_core.Pipeline.plan_with_stats ~variant:v stats trace in
  let plan_hot = plan Prefix_core.Plan.Hot in
  let plan_hds = plan Prefix_core.Plan.Hds in
  [ (fun heap -> Policy.baseline costs heap);
    (fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls);
    (fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls);
    (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hot cls);
    (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hds cls);
    baseline ]

let test_run_stream_many_equal () =
  let p = Packed.of_trace (workload_trace ()) in
  let policies = six_policies () in
  let path = Filename.temp_file "prefix_fanout" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file ~frame_events:700 path p;
      let stream = Stream.of_binary_file path in
      let fanned = Executor.run_stream_many ~policies stream in
      Alcotest.(check int) "outcome count" (List.length policies) (List.length fanned);
      List.iteri
        (fun i (policy, (o : Executor.outcome)) ->
          let solo = List.hd (Executor.run_stream_many ~policies:[ policy ] stream) in
          Alcotest.(check bool) (Printf.sprintf "policy %d metrics" i) true
            (solo.Executor.metrics = o.Executor.metrics);
          Alcotest.(check bool) (Printf.sprintf "policy %d recovery" i) true
            (solo.Executor.recovery = o.Executor.recovery))
        (List.combine policies fanned))

let prop_run_stream_many_strict_raises_same =
  QCheck.Test.make
    ~name:"run_stream_many ≡ run_stream_many of one on strict anomaly detection"
    ~count:40 (QCheck.make soup_gen)
    (fun es ->
      let p = Packed.of_trace (Trace.of_list es) in
      let stream = Stream.of_packed ~segment_events:64 p in
      let solo =
        match Executor.run_stream_many ~policies:[ baseline ] stream with
        | [ (o : Executor.outcome) ] -> Ok o.Executor.metrics
        | _ -> Error "wrong outcome arity"
        | exception Invalid_argument m -> Error m
      in
      let fanned =
        match Executor.run_stream_many ~policies:[ baseline; baseline ] stream with
        | [ a; b ] ->
          if a.Executor.metrics = b.Executor.metrics then Ok a.Executor.metrics
          else Error "fanned sessions diverge"
        | _ -> Error "wrong outcome arity"
        | exception Invalid_argument m -> Error m
      in
      solo = fanned)

let suite =
  [ ( "bigio",
      [ Alcotest.test_case "mmap and read-fallback loads agree" `Quick
          test_bigio_load_equivalence;
        Alcotest.test_case "empty file loads as the empty region" `Quick
          test_bigio_empty;
        Alcotest.test_case "sub_string slices and bounds-checks" `Quick
          test_bigio_sub_string;
        Alcotest.test_case "sub_string rejects a wrapping slice" `Quick
          test_bigio_sub_string_wrapping;
        Alcotest.test_case "missing file raises Sys_error" `Quick
          test_bigio_missing_file ] );
    ( "mmap-decode",
      [ Alcotest.test_case "golden decode corpus" `Quick test_golden_decode;
        Alcotest.test_case "big_version sniffs every container" `Quick
          test_big_version;
        QCheck_alcotest.to_alcotest prop_stream_segments ] );
    ( "replay-pipeline",
      [ Alcotest.test_case "prefetched emits identical segments" `Quick
          test_prefetched_segments;
        Alcotest.test_case "prefetched replay ≡ plain replay" `Quick
          test_prefetched_replay_equal;
        Alcotest.test_case "prefetched re-raises consumer exceptions" `Quick
          test_prefetched_consumer_abort;
        Alcotest.test_case "run_stream_many ≡ per-policy fan-outs of one" `Quick
          test_run_stream_many_equal;
        QCheck_alcotest.to_alcotest prop_run_stream_many_strict_raises_same ] ) ]
