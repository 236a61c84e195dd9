(* Differential tests: the packed replay (Executor.run_stream_many, a
   fan-out of one over the whole trace as one segment and over small
   segments) vs the boxed reference interpreter (Executor.run_boxed).
   The packed fast path must be observationally identical — same
   Metrics.t (every counter, cycle estimate and rate), same
   lenient-mode recovery tallies, same heatmaps and attribution — on
   well-formed workload traces, on injector-corrupted streams of every
   fault kind, and on arbitrary event soup. *)

module Trace = Prefix_trace.Trace
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Injector = Prefix_faults.Injector

let costs = Executor.default_config.costs

let baseline heap = Policy.baseline costs heap

let recovery_list (r : Executor.recovery) =
  [ r.double_allocs; r.unknown_accesses; r.unknown_frees; r.unknown_reallocs;
    r.invalid_sizes; r.policy_failures ]

(* Small and prime: the segmented fan-outs cross many boundaries. *)
let seg = 17

(* The packed trace as one segment, and cut into [seg]-event segments. *)
let fanout_streams trace =
  let p = Packed.of_trace trace in
  [ ("one segment", Replay.whole p); ("segments", Stream.of_packed ~segment_events:seg p) ]

let check_same ~what ?mode ?heatmap_objs ?attribute ?(policy = baseline) trace =
  let boxed = Executor.run_boxed ?mode ?heatmap_objs ?attribute ~policy trace in
  let fanouts =
    List.map
      (fun (cut, stream) ->
        let o = Replay.one ?mode ?heatmap_objs ?attribute ~policy stream in
        Alcotest.(check bool) (what ^ ", " ^ cut ^ ": metrics") true
          (boxed.Executor.metrics = o.Executor.metrics);
        Alcotest.(check (list int)) (what ^ ", " ^ cut ^ ": recovery")
          (recovery_list boxed.Executor.recovery)
          (recovery_list o.Executor.recovery);
        o)
      (fanout_streams trace)
  in
  (boxed, fanouts)

let workload_trace () =
  let wl = Prefix_workloads.Registry.find "libc" in
  wl.generate ~scale:Profiling ~seed:7 ()

(* The seven policies of a report, in report order, with plans built
   from [trace] itself as [Harness.run_benchmark] builds them from a
   profile. *)
let report_policies trace =
  let module Harness = Prefix_experiments.Harness in
  let stats = Prefix_trace.Trace_stats.analyze trace in
  let plan_hot, plan_hds, plan_hdshot, hds_plan = Harness.profile_plans stats trace in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats trace in
  let block_plan = Prefix_runtime.Block_policy.plan_of_trace trace in
  let cls = Policy.no_classification in
  let prefix plan heap = Prefix_runtime.Prefix_policy.policy costs heap plan cls in
  [ ("baseline", baseline);
    ("HDS", fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls);
    ("HALO", fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls);
    ("Block", fun heap -> Prefix_runtime.Block_policy.policy costs heap block_plan cls);
    ("PreFix:Hot", prefix plan_hot);
    ("PreFix:HDS", prefix plan_hds);
    ("PreFix:HDS+Hot", prefix plan_hdshot) ]

(* The packed path replays access runs in a tag-specialized loop over
   a dense object table; the boxed interpreter matches on every boxed
   event.  Four workloads pin the two together, two of them under every
   report policy. *)
let test_strict_workload () =
  let trace name ~seed =
    (Prefix_workloads.Registry.find name).generate ~scale:Profiling ~seed ()
  in
  List.iter
    (fun name -> ignore (check_same ~what:(name ^ " strict") (trace name ~seed:5)))
    [ "mcf"; "swissmap" ];
  List.iter
    (fun name ->
      let trace = trace name ~seed:7 in
      List.iter
        (fun (pname, policy) ->
          ignore (check_same ~what:(name ^ " " ^ pname) ~policy trace))
        (report_policies trace))
    [ "libc"; "xalanc" ]

let test_lenient_workload () =
  (* On a well-formed trace, lenient must equal strict and recover
     nothing. *)
  let boxed, _ = check_same ~what:"libc lenient" ~mode:Policy.Lenient (workload_trace ()) in
  Alcotest.(check int) "nothing recovered" 0
    (Executor.recovery_total boxed.Executor.recovery)

let test_heatmap_attribution () =
  let trace = workload_trace () in
  let boxed, fanouts =
    check_same ~what:"diagnostics" ~heatmap_objs:(fun obj -> obj mod 2 = 0)
      ~attribute:true trace
  in
  let render_hm = function
    | Some hm ->
      Printf.sprintf "%d samples, %d bytes" (Prefix_cachesim.Heatmap.samples hm)
        (Prefix_cachesim.Heatmap.footprint_bytes hm)
    | None -> "none"
  in
  let render_at = function
    | Some a -> Prefix_runtime.Attribution.render a
    | None -> "none"
  in
  List.iter
    (fun (o : Executor.outcome) ->
      Alcotest.(check string) "heatmap" (render_hm boxed.Executor.heatmap)
        (render_hm o.heatmap);
      Alcotest.(check string) "attribution" (render_at boxed.Executor.attribution)
        (render_at o.attribution))
    fanouts

let test_lenient_corrupted_every_kind () =
  let trace = workload_trace () in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let corrupted = Injector.inject kind ~seed ~rate:0.05 trace in
          let boxed, _ =
            check_same
              ~what:(Printf.sprintf "%s/seed %d" (Injector.kind_name kind) seed)
              ~mode:Policy.Lenient corrupted
          in
          (* The fault must actually exercise the recovery machinery
             for the kinds that corrupt replay state.  Dropped frees
             and truncation only leak, reordering can land in a
             still-consistent order, and size mutations may only shrink
             or inflate (still-valid sizes). *)
          match kind with
          | Injector.Duplicate_frees | Injector.Collide_ids ->
            Alcotest.(check bool)
              (Injector.kind_name kind ^ ": recovery exercised")
              true
              (Executor.recovery_total boxed.Executor.recovery > 0)
          | Injector.Drop_frees | Injector.Reorder | Injector.Truncate
          | Injector.Mutate_sizes -> ())
        [ 0; 1; 2 ])
    Injector.all_kinds

let test_negative_object_ids () =
  (* Hand-built traces may use negative ids; the dense table's Hashtbl
     fallback must agree with the boxed path in both modes. *)
  let es : Event.t list =
    [ Alloc { obj = -3; site = 1; ctx = 1; size = 64; thread = 0 };
      Access { obj = -3; offset = 0; write = false; thread = 0 };
      Alloc { obj = 7; site = 2; ctx = 2; size = 32; thread = 1 };
      Access { obj = -3; offset = 32; write = true; thread = 0 };
      Realloc { obj = -3; new_size = 128; thread = 0 };
      Access { obj = -3; offset = 96; write = false; thread = 0 };
      Access { obj = 7; offset = 0; write = false; thread = 1 };
      Free { obj = -3; thread = 0 };
      Free { obj = 7; thread = 1 } ]
  in
  ignore (check_same ~what:"negative ids strict" (Trace.of_list es));
  let abuse : Event.t list =
    es @ [ Free { obj = -3; thread = 0 };
           Access { obj = -99; offset = 0; write = false; thread = 0 } ]
  in
  let boxed, _ =
    check_same ~what:"negative ids lenient" ~mode:Policy.Lenient (Trace.of_list abuse)
  in
  Alcotest.(check int) "recovered stray free + access" 2
    (Executor.recovery_total boxed.Executor.recovery)

(* The access loop allocates nothing per event: a trace with twice the
   accesses over the same objects allocates exactly as many minor-heap
   words (per-event values would be small, hence minor, blocks) — as
   one segment, and cut into four segments each (segment buffers are
   large, hence major, blocks). *)
let test_access_runs_allocation_free () =
  let objs = 8 in
  let packed accesses =
    let es : Event.t list =
      List.init objs (fun obj -> Event.Alloc { obj; site = 1; ctx = 1; size = 256; thread = 0 })
      @ List.init accesses (fun i ->
            Event.Access
              { obj = i * 7 mod objs; offset = i * 40 mod 256; write = i mod 3 = 0; thread = 0 })
      @ List.init objs (fun obj -> Event.Free { obj; thread = 0 })
    in
    Packed.of_trace (Trace.of_list es)
  in
  let short = packed 20_000 and long = packed 40_000 in
  let words stream =
    let before = Gc.minor_words () in
    ignore (Replay.one ~policy:baseline stream);
    Gc.minor_words () -. before
  in
  let quarters p = Stream.of_packed ~segment_events:((Packed.length p + 3) / 4) p in
  List.iter
    (fun (cut, stream) ->
      ignore (words (stream short));
      let w_short = words (stream short) in
      let w_long = words (stream long) in
      Alcotest.(check (float 0.)) ("minor words, 20k vs 40k accesses, " ^ cut) w_short w_long)
    [ ("one segment", Replay.whole); ("four segments", quarters) ]

(* Arbitrary event soup, replayed leniently: ids collide, sizes go
   non-positive, frees dangle — every anomaly the recovery paths
   handle.  Offsets/sizes stay small and non-negative-address so the
   allocator's address space stays sane. *)
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
    list_size (int_range 0 300) ev)

let prop_lenient_soup =
  QCheck.Test.make ~name:"packed ≡ boxed on arbitrary lenient replays" ~count:300
    (QCheck.make soup_gen)
    (fun es ->
      let trace = Trace.of_list es in
      let boxed = Executor.run_boxed ~mode:Policy.Lenient ~policy:baseline trace in
      List.for_all
        (fun (_, stream) ->
          let o = Replay.one ~mode:Policy.Lenient ~policy:baseline stream in
          boxed.Executor.metrics = o.Executor.metrics
          && recovery_list boxed.Executor.recovery = recovery_list o.Executor.recovery)
        (fanout_streams trace))

let prop_strict_raises_same =
  QCheck.Test.make ~name:"packed ≡ boxed on strict anomaly detection" ~count:200
    (QCheck.make soup_gen)
    (fun es ->
      let trace = Trace.of_list es in
      let outcome_of run =
        match run () with
        | (o : Executor.outcome) -> Ok o.Executor.metrics
        | exception Invalid_argument m -> Error m
      in
      let boxed = outcome_of (fun () -> Executor.run_boxed ~policy:baseline trace) in
      (* Same verdict: either all replay to the same metrics or all
         reject with the same message. *)
      List.for_all
        (fun (_, stream) -> outcome_of (fun () -> Replay.one ~policy:baseline stream) = boxed)
        (fanout_streams trace))

let suite =
  [ ( "packed-replay",
      [ Alcotest.test_case "strict workload" `Quick test_strict_workload;
        Alcotest.test_case "lenient workload" `Quick test_lenient_workload;
        Alcotest.test_case "heatmap + attribution" `Quick test_heatmap_attribution;
        Alcotest.test_case "corrupted traces" `Quick test_lenient_corrupted_every_kind;
        Alcotest.test_case "negative ids" `Quick test_negative_object_ids;
        Alcotest.test_case "allocation-free access runs" `Quick
          test_access_runs_allocation_free;
        QCheck_alcotest.to_alcotest prop_lenient_soup;
        QCheck_alcotest.to_alcotest prop_strict_raises_same ] ) ]
