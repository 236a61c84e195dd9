(* mcf end to end: the paper's running example (§2.2.1), shown in full —
   profile a short training run, inspect the detected streams and the
   inferred (site, instance-id) contexts, then evaluate the plans on the
   long input against the HDS [8] and HALO baselines.

   Run with:  dune exec examples/mcf_pipeline.exe *)

module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Layout = Prefix_core.Layout
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Context = Prefix_core.Context
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy

let () =
  let wl = Registry.find "mcf" in

  (* --- Profiling run (the training input). *)
  let prof = wl.generate ~scale:Workload.Profiling ~seed:7 () in
  let stats = Trace_stats.analyze prof in
  Printf.printf "profiling trace: %d events\n" (Prefix_trace.Trace.length prof);
  let hot = Trace_stats.hot_objects stats in
  Printf.printf "hot objects (%d):\n" (List.length hot);
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      Printf.printf "  obj %d: site %d, instance #%d, %d B, %d accesses\n" o.obj o.site
        o.instance (max o.size o.alloc_size) o.accesses)
    hot;

  (* --- Stream detection and reconstitution (Algorithm 1). *)
  let ohds = Detector.detect_with_stats stats prof in
  Printf.printf "detected %d streams; top:\n" (List.length ohds);
  List.iteri
    (fun i h -> if i < 3 then Format.printf "  %a@." Hds.pp h)
    ohds;
  let layout = Layout.reconstitute ohds in
  Format.printf "placement order: [%s]@."
    (String.concat "; " (List.map string_of_int (Layout.placement_order layout)));

  (* --- Context inference: the paper's two tandem trios on two shared
     counters. *)
  let plan = Pipeline.plan_with_stats ~variant:Plan.HdsHot stats prof in
  List.iter
    (fun (cp : Plan.counter_plan) ->
      Format.printf "counter %d <- sites [%s], pattern %a@." cp.counter
        (String.concat ";" (List.map string_of_int cp.counter_sites))
        Context.pp cp.pattern)
    plan.counters;

  (* --- Evaluation on the long input: the baseline and the three
     optimizations replay in one pass over the generated stream. *)
  let costs = Executor.default_config.costs in
  let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats prof in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats prof in
  let cls = Policy.no_classification in
  match
    Executor.run_stream_many
      ~policies:
        [ Policy.baseline costs;
          (fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls);
          (fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls);
          (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan cls) ]
      (Workload.generate_stream wl ~scale:Workload.Long ~seed:8 ())
  with
  | base :: optimized ->
    List.iter2
      (fun name (o : Executor.outcome) ->
        Printf.printf "%-14s %+6.2f%% vs baseline\n" name
          (Prefix_runtime.Metrics.time_pct_change ~baseline:base.metrics o.metrics))
      [ "HDS [8]"; "HALO"; "PreFix" ] optimized
  | [] -> assert false
