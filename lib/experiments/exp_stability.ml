(* Seed stability: the paper reports times "averaged over 10 runs and
   the variations across the runs are small".  Our runs are
   deterministic given a seed, so the analogous check is robustness of
   the Table 3 deltas to the workload seed: regenerate each benchmark
   with different seeds (fresh object ids, fresh random access orders)
   and report mean ± spread of the best-PreFix delta. *)

module T = Prefix_util.Tablefmt
module M = Prefix_runtime.Metrics
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Workload = Prefix_workloads.Workload

let title = "Stability: best-PreFix delta across workload seeds (3 seeds)"

let seeds = [ 7; 1007; 90210 ]

(* A subset keeps the experiment affordable.  Not every generator draws
   on its seed: the seed-free column marks those that do not. *)
let benchmarks = [ "mcf"; "ft"; "health"; "leela"; "analyzer" ]

let same_trace a b =
  let n = Trace.length a in
  let rec from i = i = n || (Trace.get a i = Trace.get b i && from (i + 1)) in
  n = Trace.length b && from 0

(* The best-PreFix delta at [seed], with the two traces it was measured
   on. *)
let delta_for name seed =
  let wl = Prefix_workloads.Registry.find name in
  let prof = wl.generate ~scale:Workload.Profiling ~seed () in
  let long = wl.generate ~scale:Workload.Long ~seed:(seed + 1) () in
  let stats = Trace_stats.analyze prof in
  let costs = Harness.exec_config.costs in
  let base = Executor.run ~config:Harness.exec_config
      ~policy:(fun heap -> Policy.baseline costs heap) long in
  let best =
    List.fold_left
      (fun acc variant ->
        let plan =
          Pipeline.plan_with_stats ~config:Harness.pipeline_config ~variant stats prof
        in
        let o =
          Executor.run ~config:Harness.exec_config
            ~policy:(fun heap ->
              Prefix_runtime.Prefix_policy.policy costs heap plan
                Policy.no_classification)
            long
        in
        Float.min acc (M.time_pct_change ~baseline:base.metrics o.metrics))
      infinity
      [ Plan.Hot; Plan.Hds; Plan.HdsHot ]
  in
  (best, prof, long)

let report () =
  let t =
    T.create
      ~headers:
        [ "benchmark"; "mean best %"; "min"; "max"; "stddev"; "seed-free"; "paper best %" ]
  in
  List.iter
    (fun name ->
      (* A model is seed-free when every seed reproduces the first
         seed's traces; only one seed's traces are kept to compare. *)
      let d0, prof0, long0 = delta_for name (List.hd seeds) in
      let rest =
        List.map
          (fun seed ->
            let d, prof, long = delta_for name seed in
            (d, same_trace prof prof0 && same_trace long long0))
          (List.tl seeds)
      in
      let ds = d0 :: List.map fst rest in
      let p = Paper_data.find_table3 name in
      T.add_row t
        [ name;
          T.fmt_pct (Prefix_util.Stats.mean ds);
          T.fmt_pct (List.fold_left min infinity ds);
          T.fmt_pct (List.fold_left max neg_infinity ds);
          (* The 3 seeds are a sample of all possible seeds, so the
             spread uses the n-1 estimator, not the population one. *)
          T.fmt_f (Prefix_util.Stats.stddev_sample ds);
          (if List.for_all snd rest then "yes" else "no");
          T.fmt_pct p.best_pct ])
    benchmarks;
  title ^ "\n" ^ T.render t
  ^ "seed-free: every seed generates the same two traces, so the spread is zero \
     by construction.\n"
