(* Differential tests of the profile-analysis kernels against the
   reference implementations in ref_analysis.ml: the LCS dynamic
   program, the LCS + n-gram hot-data-stream detector, HALO's affinity
   grouping and the statistics collector must give identical results —
   the OHDS objects and refs in order, the HALO groups, every statistic
   and the marshaled collector bytes — on random traces and on every
   benchmark's profile.  Also: plans built on one shared detection, the
   detector's coverage knob, deterministic allocation budgets for
   detection and for the collector, and the pinned bytes of a
   checkpointed collector. *)

module D = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Lcs = Prefix_hds.Lcs
module Halo = Prefix_halo.Halo
module B = Prefix_workloads.Builder
module Rng = Prefix_util.Rng
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event
module Trace = Prefix_trace.Trace
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module R = Ref_analysis

let streams ohds = List.map (fun h -> (Hds.objs h, Hds.refs h)) ohds

let check_ohds = Alcotest.(check (list (pair (list int) int)))

(* ---- random hot-access traces ---------------------------------------- *)

type case = {
  seed : int;
  shape : int;  (* 0 random, 1 ping-pong, 2 permuted chains, 3 periodic with noise *)
  alphabet : int;  (* hot objects, 2..12 *)
  accesses : int;
  config : D.config;
}

let shape_name = function
  | 0 -> "random"
  | 1 -> "ping-pong"
  | 2 -> "permuted chains"
  | _ -> "periodic"

let print_case c =
  Printf.sprintf
    "seed=%d shape=%s alphabet=%d accesses=%d ngram_max=%d ngram_min_hits=%d \
     max_stream_len=%d min_occurrences=%d segment=%d max_gap=%d"
    c.seed (shape_name c.shape) c.alphabet c.accesses c.config.ngram_max
    c.config.ngram_min_hits c.config.max_stream_len c.config.min_occurrences
    c.config.segment c.config.max_gap

let case_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* shape = int_bound 3 in
  let* alphabet = int_range 2 12 in
  let* accesses = int_range 40 1500 in
  let* ngram_max = int_range 2 5 in
  let* ngram_min_hits = int_range 1 8 in
  let* max_stream_len = int_range 2 8 in
  let* min_occurrences = int_range 1 3 in
  let* segment = oneofl [ 8; 16; 64; 256 ] in
  let+ max_gap = int_range 1 4 in
  { seed;
    shape;
    alphabet;
    accesses;
    config =
      { D.default_config with
        ngram_max;
        ngram_min_hits;
        max_stream_len;
        min_occurrences;
        segment;
        max_gap } }

let arb_case = QCheck.make ~print:print_case case_gen

(* Hot objects spread over a few allocation contexts (so HALO has
   something to group), plus a cold pool touched now and then. *)
let trace_of c =
  let b = B.create ~seed:c.seed () in
  let rng = Rng.create c.seed in
  let hot = Array.init c.alphabet (fun i -> B.alloc b ~site:(i mod 3) ~ctx:(10 + Rng.int rng 5) 32) in
  let cold = Array.init 6 (fun i -> B.alloc b ~site:(3 + (i mod 2)) ~ctx:(20 + i) 64) in
  let n = ref 0 in
  let visit o =
    if !n < c.accesses then begin
      B.access b o 0;
      incr n;
      if Rng.int rng 16 = 0 then B.access b (Rng.choose rng cold) 0
    end
  in
  let pick () = Rng.choose rng hot in
  let chains =
    Array.init 3 (fun _ ->
        let len = min c.alphabet (2 + Rng.int rng 3) in
        let members = Array.copy hot in
        Rng.shuffle rng members;
        Array.sub members 0 len)
  in
  let period = Array.init (3 + Rng.int rng 20) (fun _ -> pick ()) in
  while !n < c.accesses do
    match c.shape with
    | 0 -> visit (pick ())
    | 1 ->
      let x = pick () and y = pick () in
      for _ = 1 to 1 + Rng.int rng 6 do
        visit x;
        visit y
      done;
      if Rng.bool rng then visit (pick ())
    | 2 ->
      (* One member set visited in varying orders, so several orders
         of the same set clear the n-gram floor. *)
      let chain = Array.copy (Rng.choose rng chains) in
      if Rng.int rng 3 = 0 then Rng.shuffle rng chain;
      Array.iter visit chain;
      for _ = 1 to Rng.int rng 3 do
        visit (pick ())
      done
    | _ -> Array.iter (fun o -> visit (if Rng.int rng 10 = 0 then pick () else o)) period
  done;
  B.trace b

let prop_detector_matches_reference =
  QCheck.Test.make ~name:"detector OHDS equals the reference miner's" ~count:400 arb_case
    (fun c ->
      let trace = trace_of c in
      let stats = Trace_stats.analyze trace in
      let got = D.detect_with_stats ~config:c.config stats trace in
      let want = R.Detector_ref.detect_with_stats ~config:c.config stats trace in
      streams got = streams want
      || QCheck.Test.fail_reportf "got %s@.want %s"
           (String.concat " " (List.map (Format.asprintf "%a" Hds.pp) got))
           (String.concat " " (List.map (Format.asprintf "%a" Hds.pp) want)))

(* HALO traces: up to 200 objects over up to 80 allocation contexts,
   visited in bursts over small groups and at random, so windows of up
   to 128 accesses hold many distinct contexts that leave and re-enter. *)
type halo_case = {
  h_seed : int;
  contexts : int;
  objects : int;
  h_accesses : int;
  window : int;
  coverage_tenths : int;
  min_affinity : float;
}

let print_halo_case c =
  Printf.sprintf "seed=%d contexts=%d objects=%d accesses=%d window=%d coverage=%d/10 \
                  min_affinity=%g"
    c.h_seed c.contexts c.objects c.h_accesses c.window c.coverage_tenths c.min_affinity

let halo_case_gen =
  let open QCheck.Gen in
  let* h_seed = int_bound 1_000_000 in
  let* contexts = int_range 1 80 in
  let* objects = int_range 2 200 in
  let* h_accesses = int_range 40 3000 in
  let* window = int_range 0 128 in
  let* coverage_tenths = int_range 0 10 in
  let+ min_affinity = float_bound_inclusive 1. in
  { h_seed; contexts; objects; h_accesses; window; coverage_tenths; min_affinity }

let halo_trace c =
  let b = B.create ~seed:c.h_seed () in
  let rng = Rng.create c.h_seed in
  let objs =
    Array.init c.objects (fun i -> B.alloc b ~site:(i mod 7) ~ctx:(100 + Rng.int rng c.contexts) 32)
  in
  let n = ref 0 in
  while !n < c.h_accesses do
    if Rng.bool rng then begin
      let group = Array.init (2 + Rng.int rng 4) (fun _ -> Rng.choose rng objs) in
      for _ = 1 to 1 + Rng.int rng 8 do
        Array.iter
          (fun o ->
            B.access b o 0;
            incr n)
          group
      done
    end
    else begin
      B.access b (Rng.choose rng objs) 0;
      incr n
    end
  done;
  B.trace b

let prop_halo_matches_reference =
  QCheck.Test.make ~name:"HALO plan equals the reference grouping's" ~count:300
    (QCheck.make ~print:print_halo_case halo_case_gen)
    (fun c ->
      let trace = halo_trace c in
      let stats = Trace_stats.analyze trace in
      let config =
        { Halo.hot_ctx_coverage = float_of_int c.coverage_tenths /. 10.;
          affinity_window = c.window;
          min_affinity = c.min_affinity }
      in
      let got = Halo.plan_of_trace ~config stats trace in
      let want = R.Halo_ref.plan_of_trace ~config stats trace in
      got.groups = want.groups && got.hot_ctxs = want.hot_ctxs)

let prop_lcs_matches_reference =
  QCheck.Test.make ~name:"flat LCS equals the reference DP" ~count:500
    QCheck.(
      pair
        (array_of_size Gen.(int_range 0 40) (int_bound 6))
        (array_of_size Gen.(int_range 0 40) (int_bound 6)))
    (fun (a, b) ->
      Lcs.lcs_with_positions a b = R.Lcs.lcs_with_positions a b
      && Lcs.length a b = R.Lcs.length a b)

let prop_periods_match_reference =
  QCheck.Test.make ~name:"dominant periods equal the reference scan" ~count:200
    QCheck.(pair (int_range 2 40) (array_of_size Gen.(int_range 0 600) (int_bound 5)))
    (fun (p, noise) ->
      (* A period-p sequence with some positions overwritten. *)
      let seq = Array.mapi (fun i x -> if x = 0 then 100 + i else i mod p) noise in
      D.dominant_periods seq = R.Detector_ref.dominant_periods seq)

(* Two contexts whose affinity is exactly the threshold are grouped:
   with a one-access window, a a a a b b b b ticks the pair once, over
   min(4, 4) accesses, so the affinity is 0.25. *)
let test_halo_threshold_inclusive () =
  let b = B.create ~seed:3 () in
  let x = B.alloc b ~site:1 ~ctx:100 32 and y = B.alloc b ~site:2 ~ctx:200 32 in
  List.iter (fun o -> B.access b o 0) [ x; x; x; x; y; y; y; y ];
  let trace = B.trace b in
  let stats = Trace_stats.analyze trace in
  let groups min_affinity =
    let config = { Halo.hot_ctx_coverage = 1.; affinity_window = 1; min_affinity } in
    let got = (Halo.plan_of_trace ~config stats trace).groups in
    Alcotest.(check (list (list int)))
      (Printf.sprintf "reference at %g" min_affinity)
      (R.Halo_ref.plan_of_trace ~config stats trace).groups got;
    got
  in
  Alcotest.(check (list (list int))) "at the threshold" [ [ 100; 200 ] ] (groups 0.25);
  Alcotest.(check (list (list int))) "above it" [ [ 100 ]; [ 200 ] ] (groups 0.26)

(* ---- every benchmark's profile -------------------------------------- *)

let test_benchmark_profiles () =
  List.iter
    (fun name ->
      let wl = Prefix_workloads.Registry.find name in
      let trace = wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      let stats = Trace_stats.analyze trace in
      check_ohds (name ^ " OHDS")
        (streams (R.Detector_ref.detect_with_stats stats trace))
        (streams (D.detect_with_stats stats trace));
      let got = Halo.plan_of_trace stats trace in
      let want = R.Halo_ref.plan_of_trace stats trace in
      Alcotest.(check (list (list int))) (name ^ " HALO groups") want.groups got.groups;
      Alcotest.(check (list int)) (name ^ " HALO contexts") want.hot_ctxs got.hot_ctxs)
    Prefix_workloads.Registry.names

(* ---- one detection per profile --------------------------------------- *)

(* The harness detects once and hands the OHDS to all four plans built
   on it; each must equal the plan made by a call that detects for
   itself. *)
let test_shared_detection_plans () =
  let module Harness = Prefix_experiments.Harness in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  List.iter
    (fun name ->
      let wl = Prefix_workloads.Registry.find name in
      let trace = wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      let stats = Trace_stats.analyze trace in
      let hot, hds, hdshot, hds_plan = Harness.profile_plans stats trace in
      let config = Harness.effective_pipeline_config () in
      let own variant = Pipeline.plan_with_stats ~config ~variant stats trace in
      List.iter
        (fun (variant, shared) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s plan" name (Plan.variant_name variant))
            true
            (shared = own variant))
        [ (Plan.Hot, hot); (Plan.Hds, hds); (Plan.HdsHot, hdshot) ];
      Alcotest.(check (list int))
        (name ^ " HDS baseline sites")
        (Prefix_runtime.Hds_policy.plan_of_trace ~detector:config.detector stats trace)
          .interesting_sites
        hds_plan.interesting_sites)
    [ "mcf"; "perl"; "swissmap"; "libc" ]

(* ---- coverage knob --------------------------------------------------- *)

(* Objects with geometrically falling access counts: coverage picks a
   prefix of them, so a lower target must prune more of the trace. *)
let test_coverage_shrinks_hot_sequence () =
  let b = B.create ~seed:21 () in
  let objs = Array.init 8 (fun _ -> B.alloc b ~site:1 32) in
  for round = 0 to 255 do
    Array.iteri (fun i o -> if round mod (1 lsl i) = 0 then B.access b o 0) objs
  done;
  let trace = B.trace b in
  let stats = Trace_stats.analyze trace in
  let low = { D.default_config with coverage = 0.5 } in
  let full = D.hot_sequence stats trace and pruned = D.hot_sequence ~config:low stats trace in
  Alcotest.(check bool)
    (Printf.sprintf "coverage 0.5 prunes more (%d < %d)" (Array.length pruned) (Array.length full))
    true
    (Array.length pruned < Array.length full);
  let allowed =
    List.map (fun (o : Trace_stats.obj_info) -> o.obj) (Trace_stats.hot_objects ~coverage:0.5 stats)
  in
  List.iter
    (fun h ->
      List.iter
        (fun o ->
          Alcotest.(check bool) (Printf.sprintf "object %d is hot at 0.5" o) true (List.mem o allowed))
        (Hds.objs h))
    (D.detect_with_stats ~config:low stats trace)

(* ---- allocation budget ----------------------------------------------- *)

let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* Words allocated by one detection per element of the pruned sequence,
   on health's Long-scale evaluation trace (a deterministic count).  The
   list- and tuple-based miners allocated ~208; the counting miner and
   flat DPs allocate ~24. *)
let words_per_element_bound = 60.

let test_detection_allocation_budget () =
  let wl = Prefix_workloads.Registry.find "health" in
  let trace = wl.generate ~scale:Prefix_workloads.Workload.Long ~seed:8 () in
  let stats = Trace_stats.analyze trace in
  let elements = Array.length (D.hot_sequence stats trace) in
  let words = allocated_words (fun () -> D.detect_with_stats stats trace) in
  let per_element = words /. float_of_int elements in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per pruned element (%d elements) <= %.0f" per_element elements
       words_per_element_bound)
    true
    (per_element <= words_per_element_bound)

(* ---- statistics collector -------------------------------------------- *)

module SR = R.Stats_ref

(* Raw events over a small id space, so ids are reused (live or freed),
   objects are freed twice, and unknown ids are accessed, freed and
   reallocated; then cut into segments of random lengths. *)
type collector_case = { c_seed : int; events : int; ids : int }

let print_collector_case c = Printf.sprintf "seed=%d events=%d ids=%d" c.c_seed c.events c.ids

let collector_case_gen =
  let open QCheck.Gen in
  let* c_seed = int_bound 1_000_000 in
  let* events = int_range 0 600 in
  let+ ids = int_range 1 60 in
  { c_seed; events; ids }

let raw_events c =
  let rng = Rng.create c.c_seed in
  let id () = Rng.int rng (c.ids + 3) - 1 in
  List.init c.events (fun _ ->
      match Rng.int rng 16 with
      | 0 | 1 | 2 ->
        Event.Alloc
          { obj = id (); site = Rng.int rng 6; ctx = Rng.int rng 4; size = 1 + Rng.int rng 512;
            thread = 0 }
      | 3 | 4 -> Event.Free { obj = id (); thread = 0 }
      | 5 -> Event.Realloc { obj = id (); new_size = 1 + Rng.int rng 1024; thread = 0 }
      | 6 -> Event.Compute { instrs = 1 + Rng.int rng 9; thread = 0 }
      | _ -> Event.Access { obj = id (); offset = 0; write = Rng.bool rng; thread = 0 })

let segments rng events =
  let rec cut acc = function
    | [] -> List.rev acc
    | evs ->
      let k = 1 + Rng.int rng 40 in
      let seg = List.filteri (fun i _ -> i < k) evs in
      cut (seg :: acc) (List.filteri (fun i _ -> i >= k) evs)
  in
  cut [] events

let info_fields (o : Trace_stats.obj_info) =
  (o.obj, o.site, o.ctx, o.size, o.alloc_size, o.accesses, o.alloc_index, o.free_index, o.instance)

let ref_fields (o : SR.obj_info) =
  (o.obj, o.site, o.ctx, o.size, o.alloc_size, o.accesses, o.alloc_index, o.free_index, o.instance)

let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Every accessor of the finished statistics, as comparable values. *)
let stats_view ~ids ~objects ~obj_info ~sites ~site_info ~site_members ~total ~len ~max_live
    ~reused ~max_live_of_site ~hot ~share ~overlap =
  let id_range = List.init (ids + 5) (fun i -> i - 2) in
  let site_range = List.init 8 (fun i -> i - 1) in
  ( ( objects,
      List.map (fun o -> attempt (fun () -> obj_info o)) id_range,
      sites,
      List.map (fun s -> attempt (fun () -> site_info s)) site_range,
      List.map site_members site_range ),
    (total, len, max_live, reused, List.map max_live_of_site site_range),
    ( List.concat_map
        (fun coverage -> List.map (fun min_accesses -> hot coverage min_accesses) [ 0; 1; 4 ])
        [ 0.; 0.5; 0.9; 1. ],
      List.map share [ []; id_range; List.filter (fun i -> i mod 2 = 0) id_range @ id_range ],
      List.concat_map
        (fun a -> List.map (fun b -> attempt (fun () -> overlap a b)) id_range)
        (List.filteri (fun i _ -> i < 12) id_range) ) )

let prop_collector_matches_reference =
  QCheck.Test.make ~name:"collector equals the copying collector" ~count:300
    (QCheck.make ~print:print_collector_case collector_case_gen)
    (fun c ->
      let segs = segments (Rng.create (c.c_seed + 1)) (raw_events c) in
      let col = Trace_stats.collector () and rc = SR.collector () in
      let base = ref 0 in
      let same_bytes =
        List.for_all
          (fun seg ->
            let packed = Packed.of_trace (Trace.of_list seg) in
            Trace_stats.feed col ~base:!base packed;
            SR.feed rc ~base:!base packed;
            base := !base + List.length seg;
            Trace_stats.events_fed col = SR.events_fed rc
            && Marshal.to_string col [] = Marshal.to_string rc [])
          segs
      in
      let t = Trace_stats.finish col and r = SR.finish rc in
      let got =
        stats_view ~ids:c.ids
          ~objects:(List.map info_fields (Trace_stats.objects t))
          ~obj_info:(fun o -> info_fields (Trace_stats.obj_info t o))
          ~sites:(Trace_stats.sites t) ~site_info:(Trace_stats.site_info t)
          ~site_members:(fun s -> List.map info_fields (Trace_stats.site_members t s))
          ~total:(Trace_stats.total_heap_accesses t) ~len:(Trace_stats.trace_length t)
          ~max_live:(Trace_stats.max_live_objects t) ~reused:(Trace_stats.reused_ids t)
          ~max_live_of_site:(Trace_stats.max_live_objects_of_site t)
          ~hot:(fun coverage min_accesses ->
            List.map info_fields (Trace_stats.hot_objects ~coverage ~min_accesses t))
          ~share:(Trace_stats.heap_access_share t) ~overlap:(Trace_stats.lifetimes_overlap t)
      in
      let want =
        stats_view ~ids:c.ids
          ~objects:(List.map ref_fields (SR.objects r))
          ~obj_info:(fun o -> ref_fields (SR.obj_info r o))
          ~sites:(SR.sites r) ~site_info:(SR.site_info r)
          ~site_members:(fun s ->
            List.map ref_fields (Option.value ~default:[] (Hashtbl.find_opt r.site_members s)))
          ~total:(SR.total_heap_accesses r) ~len:(SR.trace_length r)
          ~max_live:(SR.max_live_objects r) ~reused:(SR.reused_ids r)
          ~max_live_of_site:(SR.max_live_objects_of_site r)
          ~hot:(fun coverage min_accesses ->
            List.map ref_fields (SR.hot_objects ~coverage ~min_accesses r))
          ~share:(SR.heap_access_share r) ~overlap:(SR.lifetimes_overlap r)
      in
      same_bytes && got = want)

(* Feeding Accesses to a known object updates its record in place: no
   per-access allocation.  The copying collector allocated at least 12
   words per access, 10 of them the record copy.  Counted with
   [Gc.minor_words]: per-event blocks are minor, and [Gc.counters]
   under-reports minor words allocated since the last minor collection
   on OCaml 5.1. *)
let test_collector_access_allocation () =
  let accesses = 100_000 in
  let events =
    Event.Alloc { obj = 1; site = 0; ctx = 0; size = 64; thread = 0 }
    :: List.init accesses (fun i ->
           Event.Access { obj = 1; offset = 8 * (i mod 8); write = i mod 3 = 0; thread = 0 })
  in
  let packed = Packed.of_trace (Trace.of_list events) in
  let c = Trace_stats.collector () in
  let before = Gc.minor_words () in
  Trace_stats.feed c ~base:0 packed;
  let per_access = (Gc.minor_words () -. before) /. float_of_int accesses in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per access < 3" per_access) true
    (per_access < 3.)

(* A durable run checkpoints the collector as a plain Marshal of it
   (stats.ckpt, stats.done), with no layout stamp, so its bytes are
   pinned: a checkpoint written by an earlier build must still resume,
   and a layout change must fail here rather than misread a checkpoint
   after a rebuild.  Digests of the seed-7 profiles fed in 1,000-event
   segments. *)
let test_collector_checkpoint_bytes () =
  List.iter
    (fun (name, digest) ->
      let wl = Prefix_workloads.Registry.find name in
      let tr = wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      let c = Trace_stats.collector () in
      Stream.iter_segments
        (Stream.of_packed ~segment_events:1000 (Packed.of_trace tr))
        (fun ~base seg -> Trace_stats.feed c ~base seg);
      Alcotest.(check string) (name ^ " collector digest") digest
        (Digest.to_hex (Digest.string (Marshal.to_string c []))))
    [ ("libc", "55ecc32b51953a3dd04ecabcc43a902e"); ("health", "c8738ad0ccbd78905eb1dee06ec6a103") ]

let suite =
  [ ( "analysis-diff",
      [ QCheck_alcotest.to_alcotest prop_detector_matches_reference;
        QCheck_alcotest.to_alcotest prop_halo_matches_reference;
        QCheck_alcotest.to_alcotest prop_lcs_matches_reference;
        QCheck_alcotest.to_alcotest prop_periods_match_reference;
        Alcotest.test_case "HALO threshold inclusive" `Quick test_halo_threshold_inclusive;
        Alcotest.test_case "benchmark profiles" `Quick test_benchmark_profiles;
        Alcotest.test_case "shared detection plans" `Quick test_shared_detection_plans;
        Alcotest.test_case "coverage shrinks hot sequence" `Quick
          test_coverage_shrinks_hot_sequence;
        Alcotest.test_case "detection allocation budget" `Slow
          test_detection_allocation_budget;
        QCheck_alcotest.to_alcotest prop_collector_matches_reference;
        Alcotest.test_case "collector access allocation" `Quick
          test_collector_access_allocation;
        Alcotest.test_case "collector checkpoint bytes" `Quick
          test_collector_checkpoint_bytes ] ) ]
