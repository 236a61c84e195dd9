(* Golden regression test for the headline result: the direction (and
   rough band) of every benchmark's Table 3 outcome.  This intentionally
   reruns the full harness, so it is tagged `Slow`; it is the guard that
   keeps workload or model changes from silently breaking the
   reproduction. *)

module H = Prefix_experiments.Harness
module P = Prefix_experiments.Paper_data

let test_every_benchmark_direction () =
  List.iter
    (fun name ->
      let r = H.find name in
      let best, _ = H.best_prefix r in
      let d = H.time_delta r best in
      let paper = (P.find_table3 name).best_pct in
      (* Best PreFix always wins, and lands within a generous band of
         the paper's value: at least a third of the paper's reduction,
         at most 3x of it (the known drifts in EXPERIMENTS.md fit). *)
      Alcotest.(check bool) (name ^ " wins") true (d < -1.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s within band (measured %.1f, paper %.1f)" name d paper)
        true
        (d <= paper /. 3. && d >= paper *. 3.0))
    P.benchmarks

let test_mean_matches_paper () =
  let deltas =
    List.map
      (fun name ->
        let r = H.find name in
        H.time_delta r (fst (H.best_prefix r)))
      P.benchmarks
  in
  let mean = Prefix_util.Stats.mean deltas in
  (* paper: -21.7% *)
  Alcotest.(check bool) (Printf.sprintf "mean %.1f in [-27,-17]" mean) true
    (mean < -17. && mean > -27.)

let test_prefix_beats_hds_on_average () =
  let hds, best =
    List.fold_left
      (fun (h, b) name ->
        let r = H.find name in
        (h +. H.time_delta r r.hds, b +. H.time_delta r (fst (H.best_prefix r))))
      (0., 0.) P.benchmarks
  in
  Alcotest.(check bool) "PreFix mean below HDS mean" true (best < hds)

let test_pollution_ordering () =
  (* On every pollution benchmark, PreFix's region purity (hot/all) beats
     HDS's. *)
  List.iter
    (fun name ->
      let r = H.find name in
      let purity (p : H.policy_run) =
        if p.metrics.region_objects = 0 then 1.
        else
          float_of_int p.metrics.region_hot_objects
          /. float_of_int p.metrics.region_objects
      in
      let best, _ = H.best_prefix r in
      Alcotest.(check bool) (name ^ " purity") true (purity best >= purity r.hds))
    [ "perl"; "omnetpp"; "xalanc"; "ft" ]

let test_recycling_calls_avoided () =
  List.iter
    (fun (name, at_least) ->
      let r = H.find name in
      let best, _ = H.best_prefix r in
      Alcotest.(check bool)
        (Printf.sprintf "%s avoids >= %d calls" name at_least)
        true
        (best.metrics.calls_avoided >= at_least))
    [ ("povray", 10_000); ("roms", 10_000); ("leela", 40_000); ("swissmap", 8_000) ]

(* Every benchmark's `prefix run` report, byte for byte: a change meant
   to be a pure speedup must leave this file alone.  Regenerate with
   test/gen_run_reports.exe only for a change meant to move reports. *)
let test_run_reports_golden () =
  let got =
    String.concat ""
      (List.map
         (fun name ->
           Printf.sprintf "== %s ==\n%s" name (Prefix_experiments.Durable.render (H.find name)))
         Prefix_workloads.Registry.names)
  in
  let ic = open_in "golden_run_reports.expected" in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "run reports golden" expected got

let suite =
  [ ( "headline",
      [ Alcotest.test_case "every benchmark direction" `Slow test_every_benchmark_direction;
        Alcotest.test_case "mean matches paper" `Slow test_mean_matches_paper;
        Alcotest.test_case "prefix beats HDS" `Slow test_prefix_beats_hds_on_average;
        Alcotest.test_case "pollution ordering" `Slow test_pollution_ordering;
        Alcotest.test_case "recycling calls avoided" `Slow test_recycling_calls_avoided;
        Alcotest.test_case "run reports golden" `Slow test_run_reports_golden ] ) ]
