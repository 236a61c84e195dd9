(* Quickstart: the whole PreFix pipeline on a tiny hand-written program.

   A "program" here is a memory trace: allocations, accesses, frees.  We
   write one with a few hot objects buried among cold ones, profile it,
   build a PreFix plan, and replay it under the baseline and the
   optimized policy to see the difference.

   Run with:  dune exec examples/quickstart.exe *)

module B = Prefix_workloads.Builder
module Patterns = Prefix_workloads.Patterns
module Trace_stats = Prefix_trace.Trace_stats
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Prefix_policy = Prefix_runtime.Prefix_policy

(* A toy program: 256 small "node" objects (site 1) that a loop keeps
   visiting in order, each separated at allocation time by cold config
   blocks from site 9 — so the baseline spreads the hot set across far
   more cache lines and pages than it needs. *)
let program () =
  let b = B.create ~seed:42 () in
  let hot =
    List.init 256 (fun _ ->
        let n = B.alloc b ~site:1 32 in
        ignore (Patterns.cold_block b ~site:9 ~size:1024 2);
        n)
  in
  for _round = 1 to 150 do
    (* The hot data stream: all nodes, touched in the same order. *)
    List.iter (fun n -> B.access b n 0) hot;
    B.compute b 400
  done;
  List.iter (fun n -> B.free b n) hot;
  B.trace b

let () =
  let trace = program () in
  Printf.printf "trace: %d events, %d objects, %d heap accesses\n"
    (Prefix_trace.Trace.length trace)
    (Prefix_trace.Trace.num_objects trace)
    (Prefix_trace.Trace.num_accesses trace);

  (* 1. Profile. *)
  let stats = Trace_stats.analyze trace in
  let hot = Trace_stats.hot_objects stats in
  Printf.printf "profile: %d hot objects cover %.1f%% of heap accesses\n"
    (List.length hot)
    (100.
    *. Trace_stats.heap_access_share stats
         (List.map (fun (o : Trace_stats.obj_info) -> o.obj) hot));

  (* 2. Plan: detect streams, reconstitute, infer id patterns, assign
     offsets in the preallocated region. *)
  let plan = Pipeline.plan ~variant:Plan.HdsHot trace in
  Format.printf "%a@." Plan.pp_summary plan;

  (* 3. Replay under baseline and PreFix, both in one pass over the
     trace. *)
  let costs = Executor.default_config.costs in
  let base, opt =
    match
      Executor.run_stream_many
        ~policies:
          [ Policy.baseline costs;
            (fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification) ]
        (Prefix_trace.Stream.of_trace trace)
    with
    | [ base; opt ] -> (base, opt)
    | _ -> assert false
  in
  Printf.printf "baseline: %.0f cycles (L1 miss %.2f%%)\n"
    base.metrics.cycles.total_cycles
    (100. *. base.metrics.l1_miss_rate);
  Printf.printf "PreFix:   %.0f cycles (L1 miss %.2f%%)  => %+.2f%% execution time\n"
    opt.metrics.cycles.total_cycles
    (100. *. opt.metrics.l1_miss_rate)
    (Prefix_runtime.Metrics.time_pct_change ~baseline:base.metrics opt.metrics)
