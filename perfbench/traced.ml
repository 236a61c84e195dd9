(* A traced model job: the same job as the timed one, but driven from
   here through each layer's public functions, in the harness's order,
   with one span around every call.  Streamed replays go through
   executor sessions so that per-policy and per-segment time can be
   told apart.  Outcomes must equal the timed job's. *)

module Harness = Prefix_experiments.Harness
module Workload = Prefix_workloads.Workload
module Stream = Prefix_trace.Stream
module Packed = Prefix_trace.Packed
module Trace_stats = Prefix_trace.Trace_stats
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Checkpoint = Prefix_runtime.Checkpoint
module Metrics = Prefix_runtime.Metrics

let span = Spans.with_

let replay_span label = "runtime.replay." ^ label

(* Bytes of snapshot payloads written to checkpoints. *)
let snapshot_bytes = ref 0

type profile = { trace : Prefix_trace.Trace.t; stats : Trace_stats.t }

type model = {
  outcomes : Metrics.t list;
  events : int;
  profile : profile;
  container : string option;  (** spooled columnar file, when any *)
}

type measured = {
  outcomes : Metrics.t list;
  events : int;
  container_bytes : int;
}

let hot_set stats =
  let t = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace t o.obj ())
    (Trace_stats.hot_objects ~coverage:Harness.pipeline_config.coverage stats);
  t

let hds_set ids =
  let t = Hashtbl.create 1024 in
  List.iter (fun o -> Hashtbl.replace t o ()) ids;
  t

(* The six profile-side plans, as [Harness.run_benchmark] builds them,
   turned into the seven policies in report order. *)
let policies (p : profile) cls =
  let config = Harness.effective_pipeline_config () in
  let plan variant =
    span "core.plan" (fun () -> Pipeline.plan_with_stats ~config ~variant p.stats p.trace)
  in
  let prefix_plans = List.map plan [ Plan.Hot; Plan.Hds; Plan.HdsHot ] in
  let hds_plan =
    span "hds.plan" (fun () ->
        Prefix_runtime.Hds_policy.plan_of_trace ~detector:Harness.pipeline_config.detector
          p.stats p.trace)
  in
  let halo_plan = span "halo.plan" (fun () -> Prefix_halo.Halo.plan_of_trace p.stats p.trace) in
  let block_plan =
    span "blockpolicy.plan" (fun () -> Prefix_runtime.Block_policy.plan_of_trace p.trace)
  in
  Setup.policies ~hds_plan ~halo_plan ~block_plan ~prefix_plans cls

let session policy =
  let heap = Prefix_heap.Allocator.create () in
  let p = policy heap in
  Executor.session_create ~config:Harness.exec_config ~mode:Policy.Strict ~heatmap_objs:None
    ~attribute:false ~heap ~p

let profile_trace (wl : Workload.t) =
  span "workloads.generate" (fun () ->
      wl.generate ~scale:Workload.Profiling ~seed:Harness.seed ())

let analyze_profile trace = span "trace.analyze" (fun () -> Trace_stats.analyze trace)

let classification stats long_hds =
  let long_hot = span "trace.analyze" (fun () -> hot_set stats) in
  { Policy.is_hot = Hashtbl.mem long_hot; is_hds = Hashtbl.mem long_hds }

let classify stats stream =
  span "hds.classify" (fun () ->
      hds_set
        (List.concat_map Hds.objs
           (Detector.detect_stream ~config:Harness.pipeline_config.detector stats stream)))

let eval_stream (env : Setup.env) wl =
  Workload.generate_stream wl ~scale:env.w.scale ~seed:(Harness.seed + 1) ()

(* [prefix run <m>]: materialized evaluation trace, packed once. *)
let materialized (env : Setup.env) (wl : Workload.t) =
  let trace = profile_trace wl in
  let long =
    span "workloads.generate" (fun () -> wl.generate ~scale:env.w.scale ~seed:(Harness.seed + 1) ())
  in
  let packed = span "trace.pack" (fun () -> Packed.of_trace long) in
  let profile = { trace; stats = analyze_profile trace } in
  let stats = span "trace.analyze" (fun () -> Trace_stats.analyze_packed packed) in
  let long_hds = classify stats (Stream.of_packed packed) in
  let cls = classification stats long_hds in
  let outcomes =
    List.map
      (fun (label, policy) ->
        span (replay_span label) (fun () ->
            let st = session policy in
            Executor.replay_segment st ~base:0 packed;
            (Executor.session_finish st).metrics))
      (policies profile cls)
  in
  { outcomes; events = Packed.length packed; profile; container = None }

(* [prefix run <m> --stream --stream-container columnar --decode-once]:
   spool once, then every pass decodes the container. *)
let fanout (env : Setup.env) (wl : Workload.t) =
  let trace = profile_trace wl in
  let path = Filename.temp_file ("prefix-" ^ wl.name ^ "-") ".pfxt" in
  span "trace.encode" (fun () ->
      Prefix_util.Fsio.atomic_write path (fun buf ->
          let w = Prefix_trace.Columnar.Writer.create buf in
          span "workloads.generate" (fun () ->
              Stream.iter_segments (eval_stream env wl) (fun ~base:_ seg ->
                  span "trace.encode" (fun () -> Prefix_trace.Columnar.Writer.add_segment w seg)));
          Prefix_trace.Columnar.Writer.finish w));
  let stream () = Stream.of_binary_file path in
  let profile = { trace; stats = analyze_profile trace } in
  let c = Trace_stats.collector () in
  span "trace.decode_wait" (fun () ->
      Stream.iter_segments (stream ()) (fun ~base seg ->
          span "trace.analyze" (fun () -> Trace_stats.feed c ~base seg)));
  let stats = span "trace.analyze" (fun () -> Trace_stats.finish c) in
  let long_hds = classify stats (stream ()) in
  let cls = classification stats long_hds in
  let sessions =
    List.map
      (fun (label, policy) ->
        let name = replay_span label in
        (name, span name (fun () -> session policy)))
      (policies profile cls)
  in
  span "trace.decode_wait" (fun () ->
      Stream.iter_segments (stream ()) (fun ~base seg ->
          List.iter
            (fun (name, st) -> span name (fun () -> Executor.replay_segment st ~base seg))
            sessions));
  let outcomes =
    List.map
      (fun (name, st) -> span name (fun () -> (Executor.session_finish st).metrics))
      sessions
  in
  { outcomes; events = Trace_stats.trace_length stats; profile; container = Some path }

(* [prefix run <m> --stream --checkpoint D --checkpoint-every 1] with
   the flight recorder on: the phases of [Durable.run_benchmark] in a
   fresh directory, every stream pass regenerating the trace. *)
let checkpointed (env : Setup.env) (wl : Workload.t) =
  let ( / ) = Filename.concat in
  let cfg = Setup.durable_config env in
  let bdir = cfg.dir / wl.name in
  Prefix_util.Fsio.mkdir_p bdir;
  let mon = Checkpoint.start cfg.guardrails in
  let trace = profile_trace wl in
  let meta =
    span "experiments.manifest" (fun () ->
        let buf = Buffer.create 4096 in
        Prefix_trace.Binfmt.write buf trace;
        let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
        let config_digest =
          Digest.to_hex
            (Digest.string
               (Marshal.to_string (Harness.exec_config, Harness.effective_pipeline_config ()) []))
        in
        [ ("bench", wl.name);
          ("scale", Workload.scale_name cfg.scale);
          ("seed", string_of_int Harness.seed);
          ("stream", string_of_bool cfg.streaming);
          ("segment_events", string_of_int Stream.default_segment_events);
          ("jobs", string_of_int cfg.jobs);
          ("trace_digest", digest);
          ("config_digest", config_digest) ])
  in
  let save path kind event_index payload =
    snapshot_bytes := !snapshot_bytes + String.length payload;
    span "runtime.checkpoint_save" (fun () ->
        Checkpoint.save ~path { Checkpoint.kind; meta; event_index } ~payload)
  in
  save (bdir / "manifest") "manifest" 0 "";
  let snapshot f = span "runtime.snapshot" f in
  (* One generator pass, [feed] per segment, a save after each. *)
  let pass feed after =
    span "workloads.generate" (fun () ->
        Stream.iter_segments (eval_stream env wl) (fun ~base seg ->
            feed ~base seg;
            Checkpoint.check mon;
            after ()))
  in
  let profile = { trace; stats = analyze_profile trace } in
  let c = Trace_stats.collector () in
  let stats_snapshot () = snapshot (fun () -> Marshal.to_string c []) in
  pass
    (fun ~base seg -> span "trace.analyze" (fun () -> Trace_stats.feed c ~base seg))
    (fun () ->
      save (bdir / "stats.ckpt") "stats" (Trace_stats.events_fed c) (stats_snapshot ()));
  save (bdir / "stats.done") "stats" (Trace_stats.events_fed c) (stats_snapshot ());
  let stats = span "trace.analyze" (fun () -> Trace_stats.finish c) in
  let events = Trace_stats.trace_length stats in
  Checkpoint.check mon;
  let ids =
    span "hds.classify" (fun () ->
        List.concat_map Hds.objs
          (Detector.detect_stream ~config:Harness.pipeline_config.detector stats
             (eval_stream env wl)))
  in
  Checkpoint.check mon;
  save (bdir / "class.done") "class" events (snapshot (fun () -> Marshal.to_string ids []));
  let cls = classification stats (hds_set ids) in
  let outcomes =
    List.map
      (fun (label, policy) ->
        let name = replay_span label in
        let st = span name (fun () -> session policy) in
        let ckpt = bdir / ("policy-" ^ label ^ ".ckpt") in
        pass
          (fun ~base seg -> span name (fun () -> Executor.replay_segment st ~base seg))
          (fun () ->
            save ckpt "session" (Executor.session_events st)
              (snapshot (fun () -> Executor.session_serialize st)));
        let outcome = span name (fun () -> Executor.session_finish st) in
        save
          (bdir / ("policy-" ^ label ^ ".done"))
          "outcome" (Executor.session_events st)
          (snapshot (fun () -> Marshal.to_string outcome []));
        Prefix_obs.Recorder.poll ~label:("durable:" ^ label) ();
        outcome.metrics)
      (policies profile cls)
  in
  { outcomes; events; profile; container = None }

let run_job (env : Setup.env) =
  match env.w.kind with
  | Setup.Materialized -> materialized env env.wl
  | Setup.Fanout -> fanout env env.wl
  | Setup.Checkpointed ->
    Prefix_obs.Control.set true;
    Prefix_obs.Recorder.configure ~interval_events:Setup.telemetry_interval ();
    let m = checkpointed env env.wl in
    Prefix_obs.Recorder.disable ();
    span "obs.export" (fun () ->
        Prefix_util.Fsio.atomic_write_string (Setup.telemetry_path env)
          (Prefix_obs.Export.openmetrics ()));
    m

(* Calls outside the job that isolate one layer's cost: one detection
   on the profile, and a decode-only drain of the container. *)
let probes (m : model) =
  ignore
    (span "hds.detect" (fun () ->
         Detector.detect_with_stats ~config:Harness.pipeline_config.detector m.profile.stats
           m.profile.trace));
  Option.iter
    (fun path ->
      span "trace.decode" (fun () ->
          Stream.iter_segments (Stream.of_binary_file path) (fun ~base:_ _ -> ())))
    m.container

type job = {
  measured : (measured, string) result;
  gc_top_heap_mb : float;
  gc_major_collections : int;
  checkpoints : int;
  obs_samples : int;
}

(* The job runs under a root span, then its probes. *)
let run (env : Setup.env) =
  let measured =
    match Spans.job (Setup.job_index env) (fun () -> run_job env) with
    | m ->
      let gc = Gc.quick_stat () in
      probes m;
      let container_bytes =
        match m.container with
        | None -> 0
        | Some path ->
          let bytes = (Unix.stat path).st_size in
          Sys.remove path;
          bytes
      in
      Ok ({ outcomes = m.outcomes; events = m.events; container_bytes }, gc)
    | exception e -> Error (Printexc.to_string e)
  in
  let gc = match measured with Ok (_, gc) -> gc | Error _ -> Gc.quick_stat () in
  { measured = Result.map fst measured;
    gc_top_heap_mb = float_of_int (gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
    gc_major_collections = gc.major_collections;
    checkpoints = Checkpoint.saves ();
    obs_samples =
      (match Prefix_obs.Recorder.timeseries () with
      | Some ts -> Prefix_obs.Timeseries.length ts
      | None -> 0) }
