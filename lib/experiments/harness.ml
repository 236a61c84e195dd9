module Metrics = Prefix_runtime.Metrics
module Plan = Prefix_core.Plan
module Pipeline = Prefix_core.Pipeline
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Hds_policy = Prefix_runtime.Hds_policy
module Halo_policy = Prefix_runtime.Halo_policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Block_policy = Prefix_runtime.Block_policy
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Workload = Prefix_workloads.Workload

type policy_run = { metrics : Metrics.t; plan : Plan.t option }

type long_source =
  | Materialized of Prefix_trace.Packed.t
  | Streamed of (unit -> Prefix_trace.Stream.t)

type result = {
  wl : Workload.t;
  profiling_trace : Prefix_trace.Trace.t;
  long_source : long_source;
  long_events : int;
  profiling_stats : Trace_stats.t;
  long_hot_share : float;
  baseline : policy_run;
  hds : policy_run;
  halo : policy_run;
  block : policy_run;
  prefix_hot : policy_run;
  prefix_hds : policy_run;
  prefix_hdshot : policy_run;
  long_hot_set : (int, unit) Hashtbl.t;
  long_hds_set : (int, unit) Hashtbl.t;
}

(* A materialized evaluation trace replays as one segment: the stream
   emits the packed trace itself, so every pass reads the same arrays
   with no copy. *)
let stream_of_source = function
  | Materialized p ->
    Prefix_trace.Stream.of_packed ~segment_events:(max 1 (Prefix_trace.Packed.length p)) p
  | Streamed mk -> mk ()

let long_stream r = stream_of_source r.long_source

module Span = Prefix_obs.Span
module Log = (val Logs.src_log Prefix_obs.Log.harness)

let seed = 7

let pipeline_config = Pipeline.default_config

let exec_config = Executor.default_config

(* Evaluation-run knobs, configured once at CLI startup (before any
   benchmark runs, so the memo cache never mixes modes). *)
let streaming = ref false
let set_streaming b = streaming := b
let segment_events : int option ref = ref None
let set_segment_events n = segment_events := n
let eval_scale = ref Workload.Long
let set_eval_scale s = eval_scale := s
let stream_container : [ `Generator | `Columnar ] ref = ref `Generator
let set_stream_container c = stream_container := c

(* Recycling-slot assignment mode for the PreFix plans: Figure 7's
   modulo-N rotation, or greedy interval coloring over profiled
   liveness (the CLI's --slots flag).  Configured once at startup like
   the other evaluation knobs. *)
let slot_mode = ref Pipeline.Modulo
let set_slot_mode m = slot_mode := m
let effective_pipeline_config () = { pipeline_config with Pipeline.slot_mode = !slot_mode }

(* Every run replays its seven policies in one decode-once fan-out
   pass; the setter survives for callers of the old switch. *)
let set_decode_once (_ : bool) = ()

(* Spooled stream containers are temp files; cleanup is registered once
   from the main domain (at_exit is domain-local in OCaml 5, so worker
   domains must not register their own). *)
let spooled_files = ref []
let spooled_mutex = Mutex.create ()

let () =
  at_exit (fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !spooled_files)

(* Deduped registration: a path already on the list (e.g. re-registered
   across run_many invocations) is not added twice, so the at_exit
   sweep never double-removes and the list cannot grow without bound. *)
let add_spooled path =
  Mutex.lock spooled_mutex;
  if not (List.mem path !spooled_files) then spooled_files := path :: !spooled_files;
  Mutex.unlock spooled_mutex

(* Remove a spool file eagerly (replay exception / guardrail breach):
   the benchmark that owned it will never produce a result, so nothing
   can re-stream from the path, and waiting for at_exit would leak the
   file for the whole process lifetime (a long fuzz campaign, say). *)
let unspool path =
  Mutex.lock spooled_mutex;
  spooled_files := List.filter (fun p -> p <> path) !spooled_files;
  Mutex.unlock spooled_mutex;
  try Sys.remove path with Sys_error _ -> ()

let spool_columnar (wl : Workload.t) ~scale ~segment_events =
  let s = Workload.generate_stream wl ~scale ~seed:(seed + 1) ?segment_events () in
  let path = Filename.temp_file ("prefix-" ^ wl.name ^ "-") ".pfxt" in
  add_spooled path;
  Prefix_trace.Stream.to_columnar_file s path;
  path

(* Degree of parallelism for [run_all]/[run_many] and the experiments
   that spread independent benchmarks; 1 (the exact legacy sequential
   path) unless the CLI's --jobs configured otherwise.  A single
   benchmark always replays on the domain that runs it. *)
let jobs_setting = ref 1
let set_jobs n = jobs_setting := max 1 n
let jobs () = !jobs_setting

(* The four plans that rest on the profile's OHDS — the three PreFix
   variants and the HDS baseline's — from one detection.  Every one of
   them would detect with the same configuration on the same profile;
   the detection runs once, in a "hds-detection" span. *)
let profile_plans profiling_stats profiling_trace =
  let config = effective_pipeline_config () in
  let ohds =
    Span.with_ ~cat:"harness" "hds-detection" (fun () ->
        Detector.detect_with_stats ~config:config.detector ~method_:config.method_
          profiling_stats profiling_trace)
  in
  let plan_of variant =
    Pipeline.plan_with_stats ~config ~ohds ~variant profiling_stats profiling_trace
  in
  ( plan_of Plan.Hot,
    plan_of Plan.Hds,
    plan_of Plan.HdsHot,
    Hds_policy.plan_of_trace ~ohds profiling_stats profiling_trace )

(* Everything a benchmark's runners share once the long run has been
   measured: the profiling analysis, the long-run hot set and HDS
   classification, the six plans, the seven policies in report order
   and the result record.  [replay] runs the seven policies over the
   evaluation trace — one plain fan-out pass, or a checkpointed one —
   and returns their outcomes in order. *)
let evaluate (wl : Workload.t) ~profiling_trace ~long_source ~long_stats ~long_hds
    ~replay =
  (* Pipeline.analyze rather than Trace_stats.analyze so the pass
     appears as a "trace-analysis" span in obs reports. *)
  let profiling_stats = Pipeline.analyze profiling_trace in
  (* Long-run classification, for pollution and capture accounting,
     and the summaries reports read: taken before the replay, so the
     long-run statistics need not stay live through it. *)
  let long_hot_set = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace long_hot_set o.obj ())
    (Trace_stats.hot_objects ~coverage:pipeline_config.coverage long_stats);
  let long_events = Trace_stats.trace_length long_stats in
  let long_hot_share =
    Trace_stats.heap_access_share long_stats
      (Hashtbl.fold (fun o () acc -> o :: acc) long_hot_set [])
  in
  let long_hds_set = Hashtbl.create 1024 in
  List.iter (fun o -> Hashtbl.replace long_hds_set o ()) long_hds;
  let cls =
    { Policy.is_hot = Hashtbl.mem long_hot_set; is_hds = Hashtbl.mem long_hds_set }
  in
  let costs = exec_config.costs in
  (* Profile-side plans, sharing one detection of the profile. *)
  Log.info (fun m -> m "%s: planning" wl.name);
  let plan_hot, plan_hds, plan_hdshot, hds_plan =
    profile_plans profiling_stats profiling_trace
  in
  let halo_plan = Prefix_halo.Halo.plan_of_trace profiling_stats profiling_trace in
  let block_plan = Block_policy.plan_of_trace profiling_trace in
  let prefix plan heap = Prefix_policy.policy costs heap plan cls in
  Log.info (fun m -> m "%s: replaying all policies" wl.name);
  match
    replay
      [ (fun heap -> Policy.baseline costs heap);
        (fun heap -> Hds_policy.policy costs heap hds_plan cls);
        (fun heap -> Halo_policy.policy costs heap halo_plan cls);
        (fun heap -> Block_policy.policy costs heap block_plan cls);
        prefix plan_hot;
        prefix plan_hds;
        prefix plan_hdshot ]
  with
  | [ b; h; hl; blk; p_hot; p_hds; p_hdshot ] ->
    let run plan (o : Executor.outcome) = { metrics = o.metrics; plan } in
    { wl;
      profiling_trace;
      long_source;
      long_events;
      profiling_stats;
      long_hot_share;
      baseline = run None b;
      hds = run None h;
      halo = run None hl;
      block = run None blk;
      prefix_hot = run (Some plan_hot) p_hot;
      prefix_hds = run (Some plan_hds) p_hds;
      prefix_hdshot = run (Some plan_hdshot) p_hdshot;
      long_hot_set;
      long_hds_set }
  | _ -> invalid_arg "Harness.evaluate: replay must return one outcome per policy"

let run_benchmark_spooling (wl : Workload.t) ~spooled_path =
  (* Each benchmark derives all randomness from fixed per-benchmark
     seeds (no RNG state is shared across tasks), so a pooled run is
     bit-identical to a sequential one whatever the schedule. *)
  Span.with_ ~cat:"harness" ~args:[ ("benchmark", wl.name) ] ("benchmark:" ^ wl.name)
  @@ fun () ->
  Log.info (fun m -> m "%s: generating traces" wl.name);
  let eval_scale = !eval_scale in
  let profiling_trace, long_source =
    if !streaming then begin
      (* Streamed evaluation: the long run is never materialized.  Each
         consumer below re-runs the deterministic generator, holding one
         segment of trace memory at a time. *)
      let profiling_trace =
        Span.with_ ~cat:"harness" "generate-traces" (fun () ->
            wl.generate ~scale:Profiling ~seed ())
      in
      let segment_events = !segment_events in
      let mk =
        match !stream_container with
        | `Generator ->
          fun () ->
            Workload.generate_stream wl ~scale:eval_scale ~seed:(seed + 1)
              ?segment_events ()
        | `Columnar ->
          (* Spool the deterministic stream once into a columnar (v3)
             container, then every pass below streams from the file —
             exercising the on-disk decode path end to end.  The
             container carries the same segments, so reports stay
             byte-identical to the generator-backed (and materialized)
             paths. *)
          let path =
            Span.with_ ~cat:"harness" "spool-columnar" (fun () ->
                spool_columnar wl ~scale:eval_scale ~segment_events)
          in
          spooled_path := Some path;
          fun () -> Prefix_trace.Stream.of_binary_file ?segment_events path
      in
      (profiling_trace, Streamed mk)
    end
    else begin
      let profiling_trace, long_trace =
        Span.with_ ~cat:"harness" "generate-traces" (fun () ->
            ( wl.generate ~scale:Profiling ~seed (),
              wl.generate ~scale:eval_scale ~seed:(seed + 1) () ))
      in
      (* Pack once; the packed form is read-only and shared by analysis
         and all seven policy replays below (and by any experiment that
         replays this benchmark's long trace again). *)
      ( profiling_trace,
        Materialized
          (Span.with_ ~cat:"harness" "pack-traces" (fun () ->
               Prefix_trace.Packed.of_trace long_trace)) )
    end
  in
  let long_stream () = stream_of_source long_source in
  let long_stats = Pipeline.analyze_stream (long_stream ()) in
  Log.info (fun m -> m "%s: detecting long-run streams" wl.name);
  let long_hds =
    Span.with_ ~cat:"harness" "long-run-classification" (fun () ->
        List.concat_map Hds.objs
          (Detector.detect_stream ~config:pipeline_config.detector long_stats
             (long_stream ())))
  in
  evaluate wl ~profiling_trace ~long_source ~long_stats ~long_hds ~replay:(fun policies ->
      (* Decode-once fan-out: one pass over the evaluation stream hands
         each segment to all seven policy sessions before the next one
         is decoded. *)
      let outcomes =
        Executor.run_stream_many ~config:exec_config ~policies (long_stream ())
      in
      (* Wall-clock fallback sample, so a pooled experiment's timeline
         keeps moving even while every event-cadence tick belongs to
         some other domain's replay. *)
      Prefix_obs.Recorder.poll ~label:("benchmark:" ^ wl.name) ();
      outcomes)

(* A benchmark that dies mid-flight (strict-replay anomaly, guardrail
   breach, I/O failure) can never hand its result — and therefore its
   re-streamable spool file — to anyone, so the file is removed right
   here rather than lingering until at_exit.  On success the spool file
   must outlive this call: the result's [Streamed] closures re-stream
   from it (reports, benches, checkpoints). *)
let run_benchmark (wl : Workload.t) =
  let spooled_path = ref None in
  try run_benchmark_spooling wl ~spooled_path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Option.iter unspool !spooled_path;
    Printexc.raise_with_backtrace e bt

(* The memo cache is shared by every experiment.  Only the calling
   domain touches it: [run_many] stores what its map returns. *)
let cache : (string, result) Hashtbl.t = Hashtbl.create 16

let clear_cache () = Hashtbl.reset cache

let find name =
  match Hashtbl.find_opt cache name with
  | Some r -> r
  | None ->
    let r = run_benchmark (Prefix_workloads.Registry.find name) in
    Hashtbl.replace cache name r;
    r

let run_many ?jobs:j names =
  let missing = List.filter (fun n -> not (Hashtbl.mem cache n)) names in
  let rs =
    Prefix_parallel.Pool.map ~jobs:(Option.value j ~default:(jobs ()))
      (fun n -> run_benchmark (Prefix_workloads.Registry.find n))
      missing
  in
  List.iter2 (Hashtbl.replace cache) missing rs;
  List.map find names

let run_all ?jobs () = run_many ?jobs Prefix_workloads.Registry.names

let time_delta r (p : policy_run) = Metrics.time_pct_change ~baseline:r.baseline.metrics p.metrics

let best_prefix r =
  let candidates =
    [ (r.prefix_hot, "Hot"); (r.prefix_hds, "HDS"); (r.prefix_hdshot, "HDS+Hot") ]
  in
  List.fold_left
    (fun (bp, bl) (p, l) ->
      if p.metrics.Metrics.cycles.total_cycles < bp.metrics.Metrics.cycles.total_cycles then
        (p, l)
      else (bp, bl))
    (List.hd candidates) (List.tl candidates)
