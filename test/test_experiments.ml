(* Tests for the experiments layer: paper-data integrity and the key
   end-to-end claims on the two smallest benchmarks. *)

module P = Prefix_experiments.Paper_data
module H = Prefix_experiments.Harness
module M = Prefix_runtime.Metrics

let test_paper_data_complete () =
  Alcotest.(check int) "13 benchmarks" 13 (List.length P.benchmarks);
  List.iter
    (fun name ->
      ignore (P.find_table2 name);
      ignore (P.find_table3 name);
      ignore (P.find_table4 name);
      ignore (P.find_table5 name);
      ignore (P.find_table6 name))
    P.benchmarks

let test_paper_headline () =
  (* The abstract's headline: average best-PreFix reduction 21.7%, range
     2.77%..74%. *)
  let bests = List.map (fun (r : P.table3_row) -> -.r.best_pct) P.table3 in
  let avg = Prefix_util.Stats.mean bests in
  Alcotest.(check bool) "average ~21.7" true (abs_float (avg -. 21.7) < 0.5);
  Alcotest.(check (Alcotest.float 0.01)) "min 2.77" 2.77
    (List.fold_left min infinity bests);
  Alcotest.(check (Alcotest.float 0.01)) "max 74" 74. (List.fold_left max 0. bests)

let test_fig2_layout_matches_paper () =
  let r = Prefix_experiments.Exp_fig2.reconstitute () in
  let order = Prefix_core.Layout.placement_order r in
  Alcotest.(check (list int)) "same object set as the paper's layout"
    (List.sort compare Prefix_experiments.Exp_fig2.paper_layout)
    (List.sort compare order)

(* End-to-end claims on one small benchmark (libc is the smallest). *)

let test_libc_end_to_end () =
  let r = H.find "libc" in
  let d p = H.time_delta r p in
  (* PreFix beats the baseline. *)
  Alcotest.(check bool) "best PreFix wins" true (d (fst (H.best_prefix r)) < -1.);
  (* PreFix beats HDS [8]. *)
  Alcotest.(check bool) "beats HDS" true (d (fst (H.best_prefix r)) < d r.hds);
  (* No pollution: every object PreFix captured is profiled-hot or at
     least vastly better than HDS's ratio. *)
  let purity (pr : H.policy_run) =
    if pr.metrics.M.region_objects = 0 then 1.
    else
      float_of_int pr.metrics.M.region_hot_objects
      /. float_of_int pr.metrics.M.region_objects
  in
  Alcotest.(check bool) "PreFix purer than HDS" true
    (purity r.prefix_hdshot >= purity r.hds)

let test_swissmap_recycling_claims () =
  let r = H.find "swissmap" in
  (* All three PreFix variants perform the same on recycling benchmarks
     (§3.3). *)
  let c (p : H.policy_run) = p.metrics.M.cycles.total_cycles in
  let hot = c r.prefix_hot and hds = c r.prefix_hds and both = c r.prefix_hdshot in
  Alcotest.(check bool) "variants equal" true
    (abs_float (hot -. hds) /. hot < 0.01 && abs_float (hot -. both) /. hot < 0.01);
  (* Recycling avoids a large number of malloc/free calls. *)
  Alcotest.(check bool) "calls avoided" true
    (r.prefix_hot.metrics.M.calls_avoided > 1000);
  (* And wins time. *)
  Alcotest.(check bool) "faster" true (H.time_delta r r.prefix_hot < -5.)

let test_report_registry () =
  let module R = Prefix_experiments.Report in
  Alcotest.(check bool) "all experiments present" true (List.length R.all >= 12);
  Alcotest.(check bool) "find" true (R.find "table3" <> None);
  Alcotest.(check bool) "unknown" true (R.find "nope" = None)

module S = Prefix_experiments.Exp_stability

let stability_at jobs =
  let saved = H.jobs () in
  H.set_jobs jobs;
  Fun.protect ~finally:(fun () -> H.set_jobs saved) S.report

(* The stability table at --jobs 1, computed once for the two tests
   that read it. *)
let stability = lazy (stability_at 1)

(* The stability table marks a model seed-free when its traces do not
   depend on the seed; mcf's and leela's generators draw no random
   numbers, the other three do.  The table is the same bytes whether
   its models run one after another or across two domains. *)
let test_stability_seed_free () =
  let gen name seed =
    (Prefix_workloads.Registry.find name).generate
      ~scale:Prefix_workloads.Workload.Profiling ~seed ()
  in
  List.iter
    (fun (name, seed_free) ->
      Alcotest.(check bool) name seed_free
        (List.for_all
           (fun seed -> S.same_trace (gen name seed) (gen name (List.hd S.seeds)))
           (List.tl S.seeds)))
    [ ("mcf", true); ("ft", false); ("health", false); ("leela", true); ("analyzer", false) ];
  (* The long streams are compared by digest, which tells the same
     models apart. *)
  let digest name seed =
    S.stream_digest
      (Prefix_workloads.Workload.generate_stream
         (Prefix_workloads.Registry.find name)
         ~scale:Prefix_workloads.Workload.Profiling ~seed ())
  in
  List.iter
    (fun (name, seed_free) ->
      Alcotest.(check bool) (name ^ " digest") seed_free (digest name 8 = digest name 1008))
    [ ("mcf", true); ("ft", false); ("leela", true) ];
  Alcotest.(check string) "--jobs 2 table" (Lazy.force stability) (stability_at 2)

(* The four experiments that replay policies beyond the memoized
   benchmark runs, byte for byte: `prefix experiment stability fig9
   fig10 ablations`.  Regenerate test/golden_experiments.expected with
   test/gen_experiments.exe only for a change meant to move them. *)
let test_experiments_golden () =
  let expected = In_channel.with_open_bin "golden_experiments.expected" In_channel.input_all in
  let report id = (Option.get (Prefix_experiments.Report.find id)).run () in
  Alcotest.(check string) "experiments golden" expected
    (Lazy.force stability ^ report "fig9" ^ report "fig10" ^ report "ablations")

let suite =
  [ ( "experiments",
      [ Alcotest.test_case "paper data complete" `Quick test_paper_data_complete;
        Alcotest.test_case "paper headline" `Quick test_paper_headline;
        Alcotest.test_case "fig2 layout" `Quick test_fig2_layout_matches_paper;
        Alcotest.test_case "libc end to end" `Slow test_libc_end_to_end;
        Alcotest.test_case "swissmap recycling" `Slow test_swissmap_recycling_claims;
        Alcotest.test_case "report registry" `Quick test_report_registry;
        Alcotest.test_case "stability marks seed-free models" `Quick
          test_stability_seed_free;
        Alcotest.test_case "experiments golden" `Slow test_experiments_golden ] ) ]
