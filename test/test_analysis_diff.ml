(* Differential tests of the profile-analysis kernels against the
   reference implementations in ref_analysis.ml: the LCS dynamic
   program, the LCS + n-gram hot-data-stream detector and HALO's
   affinity grouping must give identical results — the OHDS objects and
   refs in order, the HALO groups — on random hot-access traces and on
   every benchmark's profile.  Also: plans built on one shared
   detection, the detector's coverage knob, and a deterministic
   allocation budget for detection. *)

module D = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Lcs = Prefix_hds.Lcs
module Halo = Prefix_halo.Halo
module B = Prefix_workloads.Builder
module Rng = Prefix_util.Rng
module Trace_stats = Prefix_trace.Trace_stats
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

let prop_halo_matches_reference =
  QCheck.Test.make ~name:"HALO plan equals the reference grouping's" ~count:300
    QCheck.(pair arb_case (triple (int_range 0 12) (int_range 0 10) (float_bound_inclusive 1.)))
    (fun (c, (window, coverage_tenths, min_affinity)) ->
      let trace = trace_of c in
      let stats = Trace_stats.analyze trace in
      let config =
        { Halo.hot_ctx_coverage = float_of_int coverage_tenths /. 10.;
          affinity_window = window;
          min_affinity }
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
          test_detection_allocation_budget ] ) ]
