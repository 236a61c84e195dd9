(* Durable (checkpointed) benchmark runs.

   A durable run produces exactly the {!Harness.result} that
   [Harness.run_benchmark] would, but persists its progress under a
   checkpoint directory so a killed run resumes instead of restarting.
   Layout, one subdirectory per benchmark:

     DIR/<bench>/manifest            identity of the run (validated on resume)
     DIR/<bench>/stats.ckpt[.prev]   long-run statistics collector, mid-stream
     DIR/<bench>/stats.done          final statistics collector
     DIR/<bench>/class.done          long-run HDS classification (object ids)
     DIR/<bench>/policy-<name>.ckpt  executor session, mid-replay
     DIR/<bench>/policy-<name>.done  finished replay outcome

   Work that is cheap and deterministic — trace generation, profiling
   analysis, planning — is recomputed on every resume; only the
   long-run passes (statistics, classification, seven policy replays)
   checkpoint.  Stream-detection ([class]) has no mid-phase snapshot:
   interrupted, it restarts from the beginning of that phase.

   Checkpoints are taken at stream segment boundaries, every
   [every]-th segment.  Guardrails are checked at the same boundaries;
   a breach flushes a final checkpoint before propagating, so the next
   [resume] continues from the breach point. *)

module Workload = Prefix_workloads.Workload
module Stream = Prefix_trace.Stream
module Packed = Prefix_trace.Packed
module Trace_stats = Prefix_trace.Trace_stats
module Pipeline = Prefix_core.Pipeline
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Checkpoint = Prefix_runtime.Checkpoint
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Fsio = Prefix_util.Fsio

type t = {
  dir : string;  (* root checkpoint directory *)
  every : int;  (* checkpoint every N segments *)
  throttle_ms : float;  (* min wall-clock spacing between saves *)
  guardrails : Checkpoint.guardrails;
  jobs : int;
  scale : Workload.scale;  (* evaluation scale *)
  streaming : bool;
  segment_events : int option;
}

let default ~dir =
  { dir;
    every = 8;
    throttle_ms = Checkpoint.default_throttle_ms;
    guardrails = Checkpoint.no_guardrails;
    jobs = 1;
    scale = Workload.Long;
    streaming = false;
    segment_events = None }

let ( / ) = Filename.concat

(* ---- run identity --------------------------------------------------- *)

let scale_of_name s =
  List.find_opt
    (fun sc -> Workload.scale_name sc = s)
    [ Workload.Profiling; Workload.Long; Workload.Huge ]

let config_digest () =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Harness.exec_config, Harness.effective_pipeline_config ())
          []))

let trace_digest profiling_trace =
  let buf = Buffer.create 4096 in
  Prefix_trace.Binfmt.write buf profiling_trace;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let meta_of cfg (wl : Workload.t) ~digest =
  [ ("bench", wl.name);
    ("scale", Workload.scale_name cfg.scale);
    ("seed", string_of_int Harness.seed);
    ("stream", string_of_bool cfg.streaming);
    ( "segment_events",
      string_of_int
        (Option.value ~default:Stream.default_segment_events cfg.segment_events) );
    ("jobs", string_of_int cfg.jobs);
    ("trace_digest", digest);
    ("config_digest", config_digest ()) ]

let manifest_path bdir = bdir / "manifest"

let write_or_check_manifest cfg (wl : Workload.t) ~digest bdir =
  let meta = meta_of cfg wl ~digest in
  let path = manifest_path bdir in
  if Sys.file_exists path then begin
    match Checkpoint.load_file path with
    | Error e -> failwith (path ^ ": " ^ e)
    | Ok (h, _) -> (
      match Checkpoint.check_meta h ~kind:"manifest" ~meta with
      | Ok () -> ()
      | Error e ->
        failwith
          (path ^ ": " ^ e
         ^ " (this checkpoint directory belongs to a different run)"))
  end
  else
    Checkpoint.save ~path
      { Checkpoint.kind = "manifest"; meta; event_index = 0 }
      ~payload:"";
  meta

(* ---- checkpointed phases -------------------------------------------- *)

(* Load a phase's .done container, validating identity.  A corrupt
   .done is indistinguishable from a torn final write: redo the phase. *)
let load_done ~path ~kind ~meta =
  if not (Sys.file_exists path) then None
  else
    match Checkpoint.load_file path with
    | Error _ -> None
    | Ok (h, payload) -> (
      match Checkpoint.check_meta h ~kind ~meta with
      | Ok () -> Some payload
      | Error e -> failwith (path ^ ": " ^ e))

let save_done ~path ~kind ~meta ~event_index payload =
  Checkpoint.save ~path { Checkpoint.kind; meta; event_index } ~payload

(* Resume point of an interrupted phase: the newest loadable snapshot
   (current, else .prev), or nothing — then the phase restarts.  A
   snapshot that loads but belongs to another run is refused loudly. *)
let load_snapshot ~path ~kind ~meta =
  if
    (not (Sys.file_exists path))
    && not (Sys.file_exists (Checkpoint.prev_path path))
  then None
  else
    match Checkpoint.load ~path with
    | Error _ -> None (* both copies torn: restart the phase *)
    | Ok (h, payload, _which) -> (
      match Checkpoint.check_meta h ~kind ~meta with
      | Ok () -> Some (h.Checkpoint.event_index, payload)
      | Error e -> failwith (path ^ ": " ^ e))

let misaligned ~path ~start ~base ~len =
  failwith
    (Printf.sprintf
       "%s: checkpoint at event %d is not on a segment boundary (segment \
        %d..%d); was --segment-events changed?"
       path start base (base + len))

(* Fold a stream through [feed], skipping the [start] events already
   covered by a snapshot, checkpointing via [save] every [every]-th
   replayed segment — but at most once per [throttle_ms] of wall clock,
   which bounds checkpointing overhead whatever the segment size — and
   unconditionally on guardrail breach. *)
let segments_durable cfg ~mon ~start ~save ~path stream feed =
  let segs = ref 0 in
  let now_ms () = Int64.to_float (Prefix_obs.Clock.now_ns ()) /. 1e6 in
  let last_save = ref (now_ms ()) in
  Stream.iter_segments stream (fun ~base seg ->
      let len = Packed.length seg in
      if base + len <= start then ()
      else if base < start then misaligned ~path ~start ~base ~len
      else begin
        feed ~base seg;
        incr segs;
        (try Checkpoint.check mon
         with Checkpoint.Breach _ as e ->
           save ();
           raise e);
        if !segs mod cfg.every = 0 && now_ms () -. !last_save >= cfg.throttle_ms
        then begin
          save ();
          last_save := now_ms ()
        end
      end)

(* Long-run statistics via the online collector. *)
let durable_stats cfg ~mon ~meta bdir mk_stream =
  let done_path = bdir / "stats.done" in
  let ckpt_path = bdir / "stats.ckpt" in
  let finish payload =
    match (Marshal.from_string payload 0 : Trace_stats.collector) with
    | c -> Trace_stats.finish c
    | exception (Failure msg | Invalid_argument msg) ->
      failwith (done_path ^ ": stats snapshot does not match this binary: " ^ msg)
  in
  match load_done ~path:done_path ~kind:"stats" ~meta with
  | Some payload -> finish payload
  | None ->
    let c, start =
      match load_snapshot ~path:ckpt_path ~kind:"stats" ~meta with
      | None -> (Trace_stats.collector (), 0)
      | Some (ev, payload) -> (
        match (Marshal.from_string payload 0 : Trace_stats.collector) with
        | c -> (c, ev)
        | exception (Failure _ | Invalid_argument _) ->
          (Trace_stats.collector (), 0))
    in
    let save () =
      Checkpoint.save ~path:ckpt_path
        { Checkpoint.kind = "stats"; meta; event_index = Trace_stats.events_fed c }
        ~payload:(Marshal.to_string c [])
    in
    segments_durable cfg ~mon ~start ~save ~path:ckpt_path
      (mk_stream ()) (fun ~base seg -> Trace_stats.feed c ~base seg);
    save_done ~path:done_path ~kind:"stats" ~meta
      ~event_index:(Trace_stats.events_fed c)
      (Marshal.to_string c []);
    Trace_stats.finish c

(* Long-run HDS classification.  [Detector.detect_stream] has no
   incremental snapshot: the phase restarts if interrupted. *)
let durable_class ~mon ~meta bdir long_stats mk_stream =
  let done_path = bdir / "class.done" in
  match load_done ~path:done_path ~kind:"class" ~meta with
  | Some payload -> (
    match (Marshal.from_string payload 0 : int list) with
    | ids -> ids
    | exception (Failure msg | Invalid_argument msg) ->
      failwith (done_path ^ ": " ^ msg))
  | None ->
    Checkpoint.check mon;
    let ohds =
      Detector.detect_stream ~config:Harness.pipeline_config.detector long_stats
        (mk_stream ())
    in
    let ids = List.concat_map Hds.objs ohds in
    Checkpoint.check mon;
    save_done ~path:done_path ~kind:"class" ~meta
      ~event_index:(Trace_stats.trace_length long_stats)
      (Marshal.to_string ids []);
    ids

(* One policy replay as a durable session. *)
let durable_replay cfg ~mon ~meta bdir ~name ~policy mk_stream =
  let done_path = bdir / ("policy-" ^ name ^ ".done") in
  let ckpt_path = bdir / ("policy-" ^ name ^ ".ckpt") in
  let outcome_of payload =
    match (Marshal.from_string payload 0 : Executor.outcome) with
    | o -> o
    | exception (Failure msg | Invalid_argument msg) ->
      failwith (done_path ^ ": outcome snapshot does not match this binary: " ^ msg)
  in
  match load_done ~path:done_path ~kind:"outcome" ~meta with
  | Some payload -> outcome_of payload
  | None ->
    let session, start =
      match load_snapshot ~path:ckpt_path ~kind:"session" ~meta with
      | Some (ev, payload) -> (
        match Executor.session_deserialize payload with
        | Ok st -> (st, ev)
        | Error e -> failwith (ckpt_path ^ ": " ^ e))
      | None ->
        let heap = Prefix_heap.Allocator.create () in
        let p = policy heap in
        ( Executor.session_create ~config:Harness.exec_config ~mode:Policy.Strict
            ~heatmap_objs:None ~attribute:false ~heap ~p,
          0 )
    in
    let save () =
      Checkpoint.save ~path:ckpt_path
        { Checkpoint.kind = "session";
          meta;
          event_index = Executor.session_events session }
        ~payload:(Executor.session_serialize session)
    in
    segments_durable cfg ~mon ~start ~save ~path:ckpt_path
      (mk_stream ()) (fun ~base seg -> Executor.replay_segment session ~base seg);
    let outcome = Executor.session_finish session in
    save_done ~path:done_path ~kind:"outcome" ~meta
      ~event_index:(Executor.session_events session)
      (Marshal.to_string outcome []);
    Prefix_obs.Recorder.poll ~label:("durable:" ^ name) ();
    outcome

(* ---- the durable benchmark run -------------------------------------- *)

let run_benchmark cfg (wl : Workload.t) : Harness.result =
  let bdir = cfg.dir / wl.name in
  Fsio.mkdir_p bdir;
  let mon = Checkpoint.start cfg.guardrails in
  let profiling_trace = wl.generate ~scale:Workload.Profiling ~seed:Harness.seed () in
  let digest = trace_digest profiling_trace in
  let meta = write_or_check_manifest cfg wl ~digest bdir in
  let long_source =
    if cfg.streaming then
      Harness.Streamed
        (fun () ->
          Workload.generate_stream wl ~scale:cfg.scale ~seed:(Harness.seed + 1)
            ?segment_events:cfg.segment_events ())
    else
      Harness.Materialized
        (Packed.of_trace (wl.generate ~scale:cfg.scale ~seed:(Harness.seed + 1) ()))
  in
  let mk_stream () =
    match long_source with
    | Harness.Materialized p ->
      Stream.of_packed ?segment_events:cfg.segment_events p
    | Harness.Streamed mk -> mk ()
  in
  let profiling_stats = Pipeline.analyze profiling_trace in
  let long_stats = durable_stats cfg ~mon ~meta bdir mk_stream in
  let long_events = Trace_stats.trace_length long_stats in
  let long_hot_set = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace long_hot_set o.obj ())
    (Trace_stats.hot_objects ~coverage:Harness.pipeline_config.coverage long_stats);
  let long_hds_set = Hashtbl.create 1024 in
  List.iter
    (fun o -> Hashtbl.replace long_hds_set o ())
    (durable_class ~mon ~meta bdir long_stats mk_stream);
  let cls =
    { Policy.is_hot = Hashtbl.mem long_hot_set; is_hds = Hashtbl.mem long_hds_set }
  in
  let costs = Harness.exec_config.costs in
  let plan_hot, plan_hds, plan_hdshot, hds_plan =
    Harness.profile_plans profiling_stats profiling_trace
  in
  let halo_plan = Prefix_halo.Halo.plan_of_trace profiling_stats profiling_trace in
  let block_plan = Prefix_runtime.Block_policy.plan_of_trace profiling_trace in
  let replay name policy plan =
    let o = durable_replay cfg ~mon ~meta bdir ~name ~policy mk_stream in
    { Harness.metrics = o.Executor.metrics; plan }
  in
  let baseline =
    replay "baseline" (fun heap -> Policy.baseline costs heap) None
  in
  let hds =
    replay "hds"
      (fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls)
      None
  in
  let halo =
    replay "halo"
      (fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls)
      None
  in
  let block =
    replay "block"
      (fun heap -> Prefix_runtime.Block_policy.policy costs heap block_plan cls)
      None
  in
  let prefix_run name plan =
    replay name
      (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan cls)
      (Some plan)
  in
  let prefix_hot = prefix_run "prefix_hot" plan_hot in
  let prefix_hds = prefix_run "prefix_hds" plan_hds in
  let prefix_hdshot = prefix_run "prefix_hdshot" plan_hdshot in
  { Harness.wl;
    profiling_trace;
    long_source;
    long_events;
    profiling_stats;
    long_stats;
    baseline;
    hds;
    halo;
    block;
    prefix_hot;
    prefix_hds;
    prefix_hdshot;
    long_hot_set;
    long_hds_set }

let run_many cfg names =
  let benches = List.map Prefix_workloads.Registry.find names in
  if cfg.jobs <= 1 || List.length benches <= 1 then
    List.map (run_benchmark cfg) benches
  else
    Prefix_parallel.Pool.with_pool ~jobs:cfg.jobs (fun pool ->
        Prefix_parallel.Pool.map pool (run_benchmark cfg) benches)

(* ---- resume --------------------------------------------------------- *)

(* A checkpoint directory records everything needed to finish the run:
   resume reconstructs the configuration from each manifest. *)
let read_manifest path =
  match Checkpoint.load_file path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok (h, _) ->
    if h.Checkpoint.kind <> "manifest" then
      Error (path ^ ": not a manifest (kind " ^ h.Checkpoint.kind ^ ")")
    else Ok h.Checkpoint.meta

let bench_dirs dir =
  match Sys.readdir dir with
  | exception Sys_error e -> failwith e
  | entries ->
    Array.to_list entries
    |> List.filter (fun e ->
           Sys.is_directory (dir / e)
           && Sys.file_exists (manifest_path (dir / e)))
    |> List.sort compare

let cfg_of_manifest ~dir ~every ~guardrails meta =
  let get k =
    match List.assoc_opt k meta with
    | Some v -> v
    | None -> failwith (Printf.sprintf "manifest is missing field %S" k)
  in
  let scale =
    match scale_of_name (get "scale") with
    | Some s -> s
    | None -> failwith ("manifest has unknown scale " ^ get "scale")
  in
  ( get "bench",
    { dir;
      every;
      throttle_ms = Checkpoint.default_throttle_ms;
      guardrails;
      jobs = int_of_string (get "jobs");
      scale;
      streaming = bool_of_string (get "stream");
      segment_events = Some (int_of_string (get "segment_events")) } )

let resume ~dir ~every ~guardrails =
  match bench_dirs dir with
  | [] -> failwith (dir ^ ": no benchmark checkpoints found")
  | benches ->
    let runs =
      List.map
        (fun b ->
          match read_manifest (manifest_path (dir / b)) with
          | Error e -> failwith e
          | Ok meta -> cfg_of_manifest ~dir ~every ~guardrails meta)
        benches
    in
    (* All manifests in one directory share jobs/scale/mode. *)
    let _, cfg0 = List.hd runs in
    let names = List.map fst runs in
    (names, run_many cfg0 names)

(* Cheap validation: check every container's magic, CRCs and identity
   without deserializing payload state or replaying anything. *)
let check ~dir =
  let buf = Buffer.create 256 in
  let bad = ref 0 in
  let benches = bench_dirs dir in
  if benches = [] then Error (dir ^ ": no benchmark checkpoints found")
  else begin
    List.iter
      (fun b ->
        let bdir = dir / b in
        (match read_manifest (manifest_path bdir) with
        | Error e ->
          incr bad;
          Buffer.add_string buf (Printf.sprintf "BAD  %s\n" e)
        | Ok _ -> Buffer.add_string buf (Printf.sprintf "ok   %s/manifest\n" b));
        Array.iter
          (fun f ->
            if
              Filename.check_suffix f ".ckpt"
              || Filename.check_suffix f ".done"
              || Filename.check_suffix f ".prev"
            then
              match Checkpoint.validate ~path:(bdir / f) with
              | Ok h ->
                Buffer.add_string buf
                  (Printf.sprintf "ok   %s/%s (%s @ event %d)\n" b f
                     h.Checkpoint.kind h.Checkpoint.event_index)
              | Error e ->
                incr bad;
                Buffer.add_string buf (Printf.sprintf "BAD  %s/%s: %s\n" b f e))
          (Sys.readdir bdir))
      benches;
    if !bad = 0 then Ok (Buffer.contents buf)
    else Error (Buffer.contents buf)
  end

(* ---- report rendering ----------------------------------------------- *)

(* The exact text `prefix run` prints; shared so an uninterrupted run, a
   resumed run and the crash campaign's children can be compared
   byte-for-byte. *)
let render (r : Harness.result) =
  let module M = Prefix_runtime.Metrics in
  let buf = Buffer.create 512 in
  let line label (pr : Harness.policy_run) =
    Buffer.add_string buf
      (Printf.sprintf
         "%-14s %12.0f cycles  %+7.2f%%  L1 %5.2f%%  LLC %7.4f%%  peak %s B\n"
         label pr.metrics.M.cycles.total_cycles
         (Harness.time_delta r pr)
         (100. *. pr.metrics.M.l1_miss_rate)
         (100. *. pr.metrics.M.llc_miss_rate)
         (Prefix_util.Tablefmt.fmt_int pr.metrics.M.peak_bytes))
  in
  line "baseline" r.baseline;
  line "HDS [8]" r.hds;
  line "HALO" r.halo;
  line "Block" r.block;
  line "PreFix:Hot" r.prefix_hot;
  line "PreFix:HDS" r.prefix_hds;
  line "PreFix:HDS+Hot" r.prefix_hdshot;
  Buffer.contents buf
