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
module Prefix_policy = Prefix_runtime.Prefix_policy
module Detector = Prefix_hds.Detector
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Trace = Prefix_trace.Trace
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
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

(* An MD5 chain over a stream's events, segment by segment: two streams
   cut into the same segments digest equal exactly when (up to MD5
   collisions) their events are equal. *)
let stream_digest stream =
  let d = ref "" in
  Stream.iter_segments stream (fun ~base:_ (seg : Packed.t) ->
      let col a = Array.sub a 0 seg.len in
      d :=
        Digest.string
          (Marshal.to_string
             (!d, col seg.tag, col seg.obj, col seg.fa, col seg.fb, col seg.fc, col seg.thread)
             []));
  !d

(* The best-PreFix delta at [seed], with the profiling trace and a
   digest of the long stream it was measured on.  The baseline and the
   three PreFix variants, planned from one detection, replay in one
   fan-out over the generator; the digest re-runs the generator only
   when forced. *)
let delta_for name seed =
  let wl = Prefix_workloads.Registry.find name in
  let prof = wl.generate ~scale:Workload.Profiling ~seed () in
  let long () = Workload.generate_stream wl ~scale:Workload.Long ~seed:(seed + 1) () in
  let stats = Trace_stats.analyze prof in
  let config = Harness.pipeline_config in
  let ohds =
    Detector.detect_with_stats ~config:config.detector ~method_:config.method_ stats prof
  in
  let costs = Harness.exec_config.costs in
  let prefix variant =
    let plan = Pipeline.plan_with_stats ~config ~ohds ~variant stats prof in
    fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification
  in
  match
    Executor.run_stream_many ~config:Harness.exec_config
      ~policies:(Policy.baseline costs :: List.map prefix [ Plan.Hot; Plan.Hds; Plan.HdsHot ])
      (long ())
  with
  | base :: variants ->
    let best =
      List.fold_left
        (fun acc (o : Executor.outcome) ->
          Float.min acc (M.time_pct_change ~baseline:base.metrics o.metrics))
        infinity variants
    in
    (best, prof, lazy (stream_digest (long ())))
  | [] -> assert false

(* One model's row: its three seeds run in one task, so the seed-free
   comparison holds only that model's first profiling trace and long
   digest. *)
let row name =
  (* A model is seed-free when every seed reproduces the first seed's
     traces; the long streams are compared by digest, and only when
     the profiling traces already agree. *)
  let d0, prof0, long0 = delta_for name (List.hd seeds) in
  let rest =
    List.map
      (fun seed ->
        let d, prof, long = delta_for name seed in
        (d, same_trace prof prof0 && Lazy.force long = Lazy.force long0))
      (List.tl seeds)
  in
  let ds = d0 :: List.map fst rest in
  let p = Paper_data.find_table3 name in
  [ name;
    T.fmt_pct (Prefix_util.Stats.mean ds);
    T.fmt_pct (List.fold_left min infinity ds);
    T.fmt_pct (List.fold_left max neg_infinity ds);
    (* The 3 seeds are a sample of all possible seeds, so the spread
       uses the n-1 estimator, not the population one. *)
    T.fmt_f (Prefix_util.Stats.stddev_sample ds);
    (if List.for_all snd rest then "yes" else "no");
    T.fmt_pct p.best_pct ]

let report () =
  let t =
    T.create
      ~headers:
        [ "benchmark"; "mean best %"; "min"; "max"; "stddev"; "seed-free"; "paper best %" ]
  in
  List.iter (T.add_row t)
    (Prefix_parallel.Pool.map ~jobs:(Harness.jobs ()) row benchmarks);
  title ^ "\n" ^ T.render t
  ^ "seed-free: every seed generates the same two traces, so the spread is zero \
     by construction.\n"
