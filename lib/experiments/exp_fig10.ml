(* Figure 10: effect of multithreading.  mysql and mcf are traced once
   (default thread count), optimized with their best configuration, and
   then run with varying thread counts; we report the improvement of the
   optimized run over the baseline at the same thread count. *)

module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Pipeline = Prefix_core.Pipeline
module Trace_stats = Prefix_trace.Trace_stats
module T = Prefix_util.Tablefmt
module M = Prefix_runtime.Metrics
module Workload = Prefix_workloads.Workload

let title = "Figure 10: multithreaded speedups (positive = faster than baseline)"

let thread_counts = [ 2; 4; 8; 16 ]

let series name =
  let wl = Prefix_workloads.Registry.find name in
  (* Profile once, single-threaded (as the paper: traces collected once
     with default thread count). *)
  let prof = wl.generate ~scale:Profiling ~seed:Harness.seed () in
  let prof_stats = Trace_stats.analyze prof in
  let plan =
    Pipeline.plan_with_stats ~config:Harness.pipeline_config ~variant:Prefix_core.Plan.Hot
      prof_stats prof
  in
  let costs = Harness.exec_config.costs in
  List.map
    (fun k ->
      match
        Executor.run_stream_many ~config:Harness.exec_config
          ~policies:
            [ Policy.baseline costs;
              (fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification) ]
          (Workload.generate_stream wl ~threads:k ~scale:Long ~seed:(Harness.seed + 1) ())
      with
      | [ base; opt ] -> (k, -.M.time_pct_change ~baseline:base.metrics opt.metrics)
      | _ -> assert false)
    thread_counts

let report () =
  let t = T.create ~headers:[ "benchmark"; "threads"; "improvement %"; "paper %" ] in
  List.iter
    (fun (name, paper) ->
      let s = series name in
      List.iter
        (fun (k, impr) ->
          let p = List.assoc_opt k paper in
          T.add_row t
            [ name;
              string_of_int k;
              T.fmt_pct impr;
              (match p with Some x -> T.fmt_pct x | None -> "-") ])
        s)
    [ ("mysql", Paper_data.fig10_mysql); ("mcf", Paper_data.fig10_mcf) ];
  title ^ "\n" ^ T.render t
