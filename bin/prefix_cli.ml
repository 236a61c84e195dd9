(* prefix — command-line front end for the PreFix reproduction.

   Sub-commands:
     list                      benchmarks and experiments
     trace <bench>             generate and dump a workload trace
     plan <bench>              show the PreFix plans for a benchmark
     run <bench>               replay a benchmark under all seven policies
     stats <bench>             replay and print span timings + metrics
     fuzz                      fault-injection campaign over corrupted traces
     experiment <id>...        reproduce specific tables/figures
     top <bench>               replay with a live telemetry dashboard
     all                       reproduce everything

   Observability: --log-level LEVEL turns on structured logging
   (--verbose is shorthand for --log-level info), and --obs-out FILE
   additionally collects spans/metrics and writes a Chrome trace-event
   JSON loadable in chrome://tracing or https://ui.perfetto.dev.
   --telemetry FILE turns on the continuous flight recorder and writes
   the run's timeline (.csv / .json) or an OpenMetrics exposition (any
   other extension) on exit; --telemetry-interval N sets the event
   cadence.  Missing parent directories of either output path are
   created.

   Parallelism: experiment/all/fuzz take --jobs N to spread independent
   benchmarks (or campaign runs) across N domains; one benchmark
   always replays on one domain, so `run --jobs N` only records N in a
   checkpoint manifest, for `resume` of a directory holding several
   benchmarks.  --jobs 1 is the exact legacy sequential path and every
   report is byte-identical whatever N is. *)

open Cmdliner

module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry
module Trace_stats = Prefix_trace.Trace_stats
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Harness = Prefix_experiments.Harness
module Report = Prefix_experiments.Report
module M = Prefix_runtime.Metrics

let bench_arg =
  let doc = "Benchmark name (one of the 13 workload models)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let scale_conv =
  Arg.enum
    [ ("profiling", Workload.Profiling);
      ("long", Workload.Long);
      ("huge", Workload.Huge) ]

let scale_arg =
  let doc = "Input scale: 'profiling' (training input), 'long' or 'huge'." in
  Arg.(value & opt scale_conv Workload.Long & info [ "scale" ] ~doc)

let stream_arg =
  let doc =
    "Evaluate the long run through the bounded-memory streaming engine: the \
     evaluation trace is never materialized, only one segment lives in memory \
     at a time.  Reports are byte-identical to the materialized path."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let segment_events_arg =
  let doc = "Events per stream segment (with --stream; default 65536)." in
  Arg.(value & opt (some int) None & info [ "segment-events" ] ~docv:"N" ~doc)

let set_streaming stream segment_events =
  Harness.set_streaming stream;
  Harness.set_segment_events segment_events

let seed_arg =
  let doc = "Deterministic seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~doc)

let slots_arg =
  let doc =
    "Recycling-slot assignment for the PreFix plans: 'modulo' (default, the \
     paper's (id-1) mod N rotation, Figure 7) or 'interval' (greedy coloring \
     of profiled liveness intervals — overlapping lifetimes never share a \
     slot when the profile covers them; unprofiled instances fall back to \
     modulo)."
  in
  Arg.(value
       & opt (enum [ ("modulo", Pipeline.Modulo); ("interval", Pipeline.Interval) ])
           Pipeline.Modulo
       & info [ "slots" ] ~docv:"MODE" ~doc)

let verbose_arg =
  let doc = "Print progress to stderr (same as --log-level info)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs_arg =
  let doc =
    "Spread independent benchmarks / campaign runs across $(docv) domains \
     (default: the runtime's recommended domain count).  One benchmark always \
     replays on one domain.  Results are bit-identical to --jobs 1; only wall \
     time changes."
  in
  Arg.(value
       & opt int (Prefix_parallel.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let log_level_arg =
  let level_conv =
    let parse s =
      match Logs.level_of_string s with
      | Ok l -> Ok l
      | Error (`Msg m) -> Error (`Msg m)
    in
    Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Logs.level_to_string l))
  in
  let doc =
    "Log verbosity: one of quiet, error, warning, info, debug.  Enables the \
     stderr reporter for the prefix.* log sources."
  in
  Arg.(value & opt (some level_conv) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let obs_out_arg =
  let doc =
    "Collect observability spans and metrics during the command and write a \
     Chrome trace-event JSON file to $(docv) (open in chrome://tracing or \
     https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"FILE" ~doc)

let telemetry_arg =
  let doc =
    "Record continuous telemetry (bounded flight recorder over every counter, \
     gauge and histogram quantile) during the command and write it to $(docv): \
     a CSV timeline for .csv, a JSON timeline for .json, an \
     OpenMetrics/Prometheus text exposition otherwise."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let telemetry_interval_arg =
  let doc = "Telemetry sample cadence in replay events (default 65536)." in
  Arg.(value
       & opt int 65536
       & info [ "telemetry-interval" ] ~docv:"N" ~doc)

(* Output files (--obs-out, --telemetry) may point into directories that
   do not exist yet; create them, and turn an uncreatable path into a
   clean exit-2 error naming the path instead of a backtrace. *)
let open_out_path ~flag file =
  let dir = Filename.dirname file in
  match Prefix_util.Fsio.mkdir_p dir with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "%s %s: cannot create directory %s (%s)" flag file dir
         (Unix.error_message e))
  | () -> (
    match open_out file with
    | exception Sys_error msg -> Error (Printf.sprintf "%s %s: %s" flag file msg)
    | oc -> Ok oc)

(* Install the Logs reporter when asked; leave the default nop reporter
   (complete silence) otherwise. *)
let setup_logs log_level verbose =
  match (log_level, verbose) with
  | Some level, _ -> Prefix_obs.Log.setup ~level ()
  | None, true -> Prefix_obs.Log.setup ~level:(Some Logs.Info) ()
  | None, false -> ()

(* Probe an output path up front (create parent directories, check it
   opens) so a bad path fails before the expensive run, not after it.
   The actual content is written at the end via an atomic
   temp+fsync+rename, so a crash mid-run never leaves a partial file
   where the report should be. *)
let probe_out_path ~flag file =
  match open_out_path ~flag file with
  | Error _ as e -> e
  | Ok oc ->
    close_out oc;
    Ok ()

let atomic_out ~what file data =
  Prefix_util.Fsio.atomic_write_string file data;
  Printf.eprintf "%s written to %s\n%!" what file

(* Run [k] with span/metric collection on when a trace file was
   requested, and write the trace afterwards. *)
let with_obs obs_out k =
  match obs_out with
  | None -> k ()
  | Some file -> (
    match probe_out_path ~flag:"--obs-out" file with
    | Error msg ->
      Printf.eprintf "prefix: error: %s\n" msg;
      2
    | Ok () ->
      Prefix_obs.Control.set true;
      let rc = k () in
      atomic_out ~what:"chrome trace" file (Prefix_obs.Export.chrome_trace ());
      rc)

(* Same shape for --telemetry: configure the flight recorder around the
   command and dump the timeline (or an OpenMetrics exposition) on the
   way out. *)
let with_telemetry ?on_sample telemetry interval k =
  match telemetry with
  | None -> k ()
  | Some _ when interval <= 0 ->
    Printf.eprintf "prefix: error: --telemetry-interval must be positive\n";
    2
  | Some file -> (
    match probe_out_path ~flag:"--telemetry" file with
    | Error msg ->
      Printf.eprintf "prefix: error: %s\n" msg;
      2
    | Ok () ->
      Prefix_obs.Control.set true;
      Prefix_obs.Recorder.configure ~interval_events:interval ?on_sample ();
      let rc = k () in
      Prefix_obs.Recorder.disable ();
      let data =
        if Filename.check_suffix file ".csv" then Prefix_obs.Export.timeline_csv ()
        else if Filename.check_suffix file ".json" then
          Prefix_obs.Export.timeline_json ()
        else Prefix_obs.Export.openmetrics ()
      in
      atomic_out ~what:"telemetry" file data;
      rc)

(* Replay and parse failures surface as clean one-line errors with exit
   code 2 instead of an uncaught exception and a backtrace.  Strict-mode
   replays of corrupt traces land here. *)
let guard k =
  match k () with
  | rc -> rc
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
    Printf.eprintf "prefix: error: %s\n" msg;
    2

(* A resource-guardrail breach is not an error: the run flushed a final
   checkpoint and can be finished with `prefix resume`.  It gets its own
   exit code (3) so scripts can tell it from success (0), failed
   validation (1) and hard errors (2).  Placed inside with_obs /
   with_telemetry so those outputs — including the guardrail.* metrics —
   are still written. *)
let catch_breach k =
  match k () with
  | rc -> rc
  | exception Prefix_runtime.Checkpoint.Breach msg ->
    Printf.eprintf
      "prefix: guardrail: %s (checkpoint flushed; finish with `prefix resume`)\n"
      msg;
    3

let get_workload name =
  match List.find_opt (fun (w : Workload.t) -> w.name = name) Registry.all with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %S (try: %s)" name
         (String.concat ", " Registry.names))

(* --- list *)

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun (w : Workload.t) -> Printf.printf "  %-9s %s\n" w.name w.description)
      Registry.all;
    print_endline "experiments:";
    List.iter
      (fun (e : Report.experiment) -> Printf.printf "  %-9s %s\n" e.id e.what)
      Report.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and experiments")
    Term.(const run $ const ())

(* --- trace *)

let trace_cmd =
  let run name scale seed limit format out =
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      guard @@ fun () ->
      let trace = w.generate ~scale ~seed () in
      let n = Prefix_trace.Trace.length trace in
      match format with
      | `Text ->
        let shown = match limit with Some l -> min l n | None -> n in
        for i = 0 to shown - 1 do
          print_endline (Prefix_trace.Event.to_line (Prefix_trace.Trace.get trace i))
        done;
        if shown < n then Printf.eprintf "(%d of %d events shown)\n" shown n;
        0
      | `Columnar -> (
        match out with
        | None ->
          prerr_endline "prefix: error: --format columnar requires --out FILE";
          2
        | Some path ->
          Prefix_trace.Columnar.write_file path (Prefix_trace.Packed.of_trace trace);
          Printf.eprintf "%s: %d events, %d bytes\n" path n
            (match Prefix_util.Fsio.read_file path with
            | Ok s -> String.length s
            | Error _ -> 0);
          0)
  in
  let limit =
    Arg.(value
         & opt (some int) None
         & info [ "limit" ] ~doc:"Print at most N events (text format only).")
  in
  let format =
    let doc =
      "Output format: 'text' dumps one event per line to stdout; 'columnar' \
       writes the columnar v3 container to --out."
    in
    Arg.(value
         & opt (enum [ ("text", `Text); ("columnar", `Columnar) ]) `Text
         & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Output file for the columnar format.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Generate and dump or convert a workload trace")
    Term.(const run $ bench_arg $ scale_arg $ seed_arg $ limit $ format $ out)

(* --- plan *)

let plan_cmd =
  let run name seed slots =
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      let trace = w.generate ~scale:Workload.Profiling ~seed () in
      let stats = Trace_stats.analyze trace in
      List.iter
        (fun variant ->
          let plan =
            Pipeline.plan_with_stats
              ~config:{ Harness.pipeline_config with slot_mode = slots }
              ~variant stats trace
          in
          Format.printf "%a@." Plan.pp_summary plan;
          List.iter
            (fun (cp : Plan.counter_plan) ->
              Format.printf "  counter %d: sites [%s], pattern %a, %s@." cp.counter
                (String.concat ";" (List.map string_of_int cp.counter_sites))
                Prefix_core.Context.pp cp.pattern
                (match cp.recycle with
                | Some rb ->
                  Printf.sprintf "recycling %d slots of %d B%s" rb.n_slots rb.slot_bytes
                    (if rb.assignment = [] then ""
                     else
                       Printf.sprintf " (%d interval-colored instances)"
                         (List.length rb.assignment))
                | None -> Printf.sprintf "%d placements" (List.length cp.placements)))
            plan.counters;
          print_newline ())
        [ Plan.Hot; Plan.Hds; Plan.HdsHot ];
      0
  in
  Cmd.v (Cmd.info "plan" ~doc:"Show the PreFix plans built from a profiling run")
    Term.(const run $ bench_arg $ seed_arg $ slots_arg)

(* --- run *)

module Durable = Prefix_experiments.Durable
module Checkpoint = Prefix_runtime.Checkpoint

let checkpoint_arg =
  let doc =
    "Write self-validating checkpoints under $(docv) at stream segment \
     boundaries.  A killed (or guardrail-stopped) run is finished by `prefix \
     resume $(docv)` with a byte-identical report."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc = "Checkpoint every $(docv)-th stream segment (default 8)." in
  Arg.(value & opt int 8 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Stop the run after $(docv) seconds of wall clock (checked at segment \
     boundaries): flush a final checkpoint and exit with code 3.  Requires \
     --checkpoint."
  in
  Arg.(value & opt (some float) None & info [ "deadline-s" ] ~docv:"SECONDS" ~doc)

let max_rss_arg =
  let doc =
    "Stop the run when resident memory exceeds $(docv) megabytes (checked at \
     segment boundaries): flush a final checkpoint and exit with code 3.  \
     Requires --checkpoint."
  in
  Arg.(value & opt (some int) None & info [ "max-rss-mb" ] ~docv:"MB" ~doc)

let stream_container_arg =
  let doc =
    "Source backing the streamed evaluation (with --stream): 'generator' \
     (default) re-runs the deterministic workload generator each pass; \
     'columnar' spools the stream once into a compressed columnar (v3) \
     container and replays from the file — same segments, byte-identical \
     report, with the on-disk decode path exercised end to end.  'columnar' \
     without --stream, or with --checkpoint, is refused (exit 2)."
  in
  Arg.(value
       & opt (enum [ ("generator", `Generator); ("columnar", `Columnar) ]) `Generator
       & info [ "stream-container" ] ~docv:"CONTAINER" ~doc)

let decode_once_arg =
  let doc =
    "Ignored.  Every run replays its seven policies as consumers of a single \
     decode pass over the evaluation stream."
  in
  let deprecated = "deprecated, every run decodes once; the flag has no effect" in
  Arg.(value & flag & info [ "decode-once" ] ~deprecated ~doc)

let run_cmd =
  let run name scale stream segment_events stream_container _decode_once slots
      jobs verbose log_level obs_out telemetry telemetry_interval checkpoint
      checkpoint_every deadline_s max_rss_mb =
    setup_logs log_level verbose;
    set_streaming stream segment_events;
    Harness.set_stream_container stream_container;
    Harness.set_slot_mode slots;
    Harness.set_eval_scale scale;
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      if checkpoint = None && (deadline_s <> None || max_rss_mb <> None) then begin
        Printf.eprintf
          "prefix: error: --deadline-s / --max-rss-mb require --checkpoint (a \
           guardrail stop must leave something to resume)\n";
        2
      end
      else if checkpoint_every <= 0 then begin
        Printf.eprintf "prefix: error: --checkpoint-every must be positive\n";
        2
      end
      else if stream_container = `Columnar && ((not stream) || checkpoint <> None)
      then begin
        Printf.eprintf
          "prefix: error: --stream-container columnar requires --stream and no \
           --checkpoint (a checkpointed run streams from the generator)\n";
        2
      end
      else
        guard @@ fun () ->
        with_obs obs_out @@ fun () ->
        with_telemetry telemetry telemetry_interval @@ fun () ->
        catch_breach @@ fun () ->
        let r =
          match checkpoint with
          | None -> Harness.find w.name
          | Some dir ->
            let cfg =
              { Durable.dir;
                every = checkpoint_every;
                throttle_ms = Checkpoint.default_throttle_ms;
                guardrails = { Checkpoint.deadline_s; max_rss_mb };
                jobs;
                scale;
                streaming = stream;
                segment_events }
            in
            Durable.run_benchmark cfg w
        in
        print_string (Durable.render r);
        0
  in
  let eval_scale_arg =
    let doc = "Evaluation-run scale: 'long' (default) or 'huge' (~10x)." in
    Arg.(value & opt scale_conv Workload.Long & info [ "scale" ] ~doc)
  in
  Cmd.v (Cmd.info "run" ~doc:"Replay one benchmark under all seven policies")
    Term.(const run $ bench_arg $ eval_scale_arg $ stream_arg
          $ segment_events_arg $ stream_container_arg $ decode_once_arg
          $ slots_arg $ jobs_arg $ verbose_arg $ log_level_arg $ obs_out_arg
          $ telemetry_arg $ telemetry_interval_arg $ checkpoint_arg
          $ checkpoint_every_arg $ deadline_arg $ max_rss_arg)

(* --- resume *)

let resume_cmd =
  let run dir check checkpoint_every deadline_s max_rss_mb verbose log_level =
    setup_logs log_level verbose;
    if check then
      match Durable.check ~dir with
      | Ok report ->
        print_string report;
        print_endline "all checkpoints valid";
        0
      | Error report ->
        print_string report;
        prerr_endline "prefix: error: invalid checkpoints found";
        1
    else
      guard @@ fun () ->
      catch_breach @@ fun () ->
      let names, results =
        Durable.resume ~dir ~every:checkpoint_every
          ~guardrails:{ Checkpoint.deadline_s; max_rss_mb }
      in
      (match (names, results) with
      | [ _ ], [ r ] -> print_string (Durable.render r)
      | _ ->
        List.iter2
          (fun n r ->
            Printf.printf "== %s ==\n" n;
            print_string (Durable.render r))
          names results);
      0
  in
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Checkpoint directory of an earlier run.")
  in
  let check_arg =
    let doc =
      "Only validate the checkpoints (magic, CRCs, run identity) and exit; \
       nothing is replayed."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Finish an interrupted checkpointed run.  The report is \
          byte-identical to the uninterrupted run's")
    Term.(const run $ dir_arg $ check_arg $ checkpoint_every_arg $ deadline_arg
          $ max_rss_arg $ verbose_arg $ log_level_arg)

(* --- stats *)

let stats_cmd =
  let run name stream segment_events verbose log_level obs_out telemetry
      telemetry_interval =
    setup_logs log_level verbose;
    set_streaming stream segment_events;
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      guard @@ fun () ->
      (* Spans and metrics are the whole point of this command. *)
      Prefix_obs.Control.set true;
      Prefix_obs.Span.reset ();
      Prefix_obs.Metric.reset ();
      with_obs obs_out @@ fun () ->
      with_telemetry telemetry telemetry_interval @@ fun () ->
      let r = Harness.find w.name in
      Printf.printf "%s: %d profiling events, %d long events, 7 policies replayed\n\n"
        w.name
        (Prefix_trace.Trace.length r.profiling_trace)
        r.long_events;
      print_string (Prefix_obs.Export.report ());
      0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Replay one benchmark with observability on and print the per-stage \
          span timing table and the metrics report")
    Term.(const run $ bench_arg $ stream_arg $ segment_events_arg $ verbose_arg
          $ log_level_arg $ obs_out_arg $ telemetry_arg $ telemetry_interval_arg)

(* --- fuzz *)

let fuzz_cmd =
  let module Injector = Prefix_faults.Injector in
  let module Campaign = Prefix_faults.Campaign in
  let kind_conv =
    Arg.enum (List.map (fun k -> (Injector.kind_name k, k)) Injector.all_kinds)
  in
  let policy_conv =
    Arg.enum
      (List.map
         (fun p -> (String.lowercase_ascii (Campaign.policy_name p), p))
         Campaign.all_policies)
  in
  let seeds_arg =
    Arg.(value & opt int 8
         & info [ "seeds" ] ~docv:"N" ~doc:"Fault seeds 0..N-1 per combination.")
  in
  let rate_arg =
    Arg.(value & opt float 0.01
         & info [ "rate" ] ~docv:"R"
             ~doc:"Fraction of candidate events corrupted per injection.")
  in
  let benches_arg =
    Arg.(value & opt (list string) Registry.names
         & info [ "benches" ] ~docv:"B1,B2,.." ~doc:"Benchmarks to sweep.")
  in
  let kinds_arg =
    let doc =
      Printf.sprintf "Fault kinds to inject (default all: %s)."
        (String.concat ", " (List.map Injector.kind_name Injector.all_kinds))
    in
    Arg.(value & opt (list kind_conv) Injector.all_kinds
         & info [ "kinds" ] ~docv:"K1,K2,.." ~doc)
  in
  let policies_arg =
    Arg.(value & opt (list policy_conv) Campaign.all_policies
         & info [ "policies" ] ~docv:"P1,P2,.."
             ~doc:"Policies to replay under (hds, halo, block, prefix).")
  in
  let region_cap_arg =
    Arg.(value & opt (some int) None
         & info [ "region-cap" ] ~docv:"BYTES"
             ~doc:
               "Cap each HDS/HALO region (and the Block policy's block space) \
                at $(docv) during the lenient replay so exhaustion degrades \
                to malloc fallback.")
  in
  let crash_arg =
    let doc =
      "Run the crash-recovery leg instead: SIGKILL checkpointed runs at \
       randomized segment boundaries (plus torn-checkpoint injection), resume \
       them, and require byte-identical reports."
    in
    Arg.(value & flag & info [ "crash" ] ~doc)
  in
  let crash_kills_arg =
    Arg.(value & opt int 20
         & info [ "crash-kills" ] ~docv:"N"
             ~doc:"Keep killing until $(docv) kill points were exercised.")
  in
  let crash_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "crash-dir" ] ~docv:"DIR"
             ~doc:
               "Campaign working directory (default: a fresh directory under \
                the system temp dir; kept on failure for inspection).")
  in
  let crash_seed_arg =
    Arg.(value & opt int 42
         & info [ "crash-seed" ] ~docv:"SEED"
             ~doc:"Seed for kill points and torn-write injection.")
  in
  let run seeds rate benches kinds policies region_cap jobs verbose
      log_level obs_out telemetry telemetry_interval crash crash_kills crash_dir
      crash_seed =
    setup_logs log_level verbose;
    match
      List.filter_map
        (fun b -> match get_workload b with Error e -> Some e | Ok _ -> None)
        benches
    with
    | e :: _ -> prerr_endline e; 1
    | [] ->
      guard @@ fun () ->
      with_obs obs_out @@ fun () ->
      with_telemetry telemetry telemetry_interval @@ fun () ->
      let progress m =
        if verbose || log_level <> None then Printf.eprintf "%s\n%!" m
      in
      if crash then begin
        let module Crash = Prefix_faults.Crash in
        let dir =
          match crash_dir with
          | Some d -> d
          | None ->
            let d =
              Filename.temp_file "prefix-crash" ""
            in
            Sys.remove d;
            d
        in
        let cfg =
          { (Crash.default_config ~dir) with
            benches =
              (* Keep the default pair unless the user narrowed the sweep. *)
              (if benches = Registry.names then (Crash.default_config ~dir).benches
               else benches);
            seed = crash_seed;
            target_kills = crash_kills }
        in
        let s = Crash.run ~progress cfg in
        print_string (Crash.report s);
        if Crash.ok s then 0 else 1
      end
      else begin
        let cfg =
          { Campaign.benches; policies; kinds; seeds; rate; region_cap }
        in
        let s = Campaign.run ~jobs ~progress cfg in
        print_string (Campaign.report s);
        if Campaign.ok s then 0 else 1
      end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the fault-injection campaign: corrupt benchmark traces with \
          seeded faults, assert lenient replay is crash-free with bounded \
          metric drift, and that sanitized traces replay strictly")
    Term.(const run $ seeds_arg $ rate_arg $ benches_arg $ kinds_arg
          $ policies_arg $ region_cap_arg $ jobs_arg $ verbose_arg
          $ log_level_arg $ obs_out_arg $ telemetry_arg
          $ telemetry_interval_arg $ crash_arg $ crash_kills_arg
          $ crash_dir_arg $ crash_seed_arg)

(* --- experiment *)

let experiment_cmd =
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  let run ids jobs verbose log_level obs_out =
    setup_logs log_level verbose;
    Harness.set_jobs jobs;
    with_obs obs_out @@ fun () ->
    List.fold_left
      (fun rc id ->
        match Report.find id with
        | Some e -> print_string (e.run ()); rc
        | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          1)
      0 ids
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Reproduce specific tables/figures")
    Term.(const run $ ids $ jobs_arg $ verbose_arg $ log_level_arg $ obs_out_arg)

(* --- hotspots *)

let hotspots_cmd =
  let run name =
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      let prof = w.generate ~scale:Workload.Profiling ~seed:7 () in
      let stats = Trace_stats.analyze prof in
      let plan = Pipeline.plan_with_stats ~config:Harness.pipeline_config
          ~variant:Plan.HdsHot stats prof in
      let costs = Prefix_runtime.Executor.default_config.costs in
      let outcomes =
        Prefix_runtime.Executor.run_stream_many ~attribute:true
          ~policies:
            [ Prefix_runtime.Policy.baseline costs;
              (fun heap ->
                Prefix_runtime.Prefix_policy.policy costs heap plan
                  Prefix_runtime.Policy.no_classification) ]
          (Workload.generate_stream w ~scale:Workload.Long ~seed:8 ())
      in
      List.iter2
        (fun label (o : Prefix_runtime.Executor.outcome) ->
          Printf.printf "--- %s: top allocation sites by L1 misses ---\n" label;
          Option.iter
            (fun a -> print_string (Prefix_runtime.Attribution.render ~n:8 a))
            o.attribution)
        [ "baseline"; "PreFix" ] outcomes;
      0
  in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:"Attribute cache/TLB misses to allocation sites, baseline vs PreFix")
    Term.(const run $ bench_arg)

(* --- lifetimes *)

let lifetimes_cmd =
  let run name =
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      let trace = w.generate ~scale:Workload.Profiling ~seed:7 () in
      let stats = Trace_stats.analyze trace in
      let plan = Pipeline.plan_with_stats ~config:Harness.pipeline_config
          ~variant:Plan.HdsHot stats trace in
      print_string
        (Prefix_core.Lifetimes.report stats
           ~trace_len:(Prefix_trace.Trace.length trace)
           plan.placed_objects);
      0
  in
  Cmd.v
    (Cmd.info "lifetimes"
       ~doc:"Classify a benchmark's placed objects by profiled lifetime range")
    Term.(const run $ bench_arg)

(* --- validate *)

let validate_cmd =
  let run () =
    let failures = ref 0 in
    let check name ok detail =
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %-30s %s\n" name detail
      end
      else Printf.printf "ok   %s\n" name
    in
    List.iter
      (fun (w : Workload.t) ->
        List.iter
          (fun scale ->
            let trace = w.generate ~scale ~seed:7 () in
            let violations = Prefix_trace.Trace.validate trace in
            check
              (Printf.sprintf "%s/%s trace" w.name (Workload.scale_name scale))
              (violations = [])
              (match violations with
              | [] -> ""
              | v :: _ -> Format.asprintf "%a" Prefix_trace.Trace.pp_violation v);
            if scale = Workload.Profiling then begin
              let stats = Trace_stats.analyze trace in
              List.iter
                (fun variant ->
                  let plan =
                    Pipeline.plan_with_stats ~config:Harness.pipeline_config ~variant stats
                      trace
                  in
                  check
                    (Printf.sprintf "%s plan %s" w.name (Plan.variant_name variant))
                    (Plan.validate plan = Ok ())
                    (match Plan.validate plan with Error e -> e | Ok () -> ""))
                [ Plan.Hot; Plan.Hds; Plan.HdsHot ]
            end)
          [ Workload.Profiling; Workload.Long ])
      Registry.all;
    if !failures = 0 then begin
      print_endline "all checks passed";
      0
    end
    else begin
      Printf.printf "%d failures\n" !failures;
      1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate every workload trace and every generated plan")
    Term.(const run $ const ())

(* --- top *)

(* Live telemetry dashboard: a streamed replay of one benchmark with the
   flight recorder on, rendering every sample as it is recorded.  On a
   TTY the frame is redrawn in place with ANSI escapes; when stdout is a
   pipe (CI, redirects) each sample degrades to one plain line starting
   with "sample ", so scripts can assert on the output. *)
let top_cmd =
  let run name scale segment_events interval verbose log_level =
    setup_logs log_level verbose;
    set_streaming true segment_events;
    Harness.set_eval_scale scale;
    match get_workload name with
    | Error e -> prerr_endline e; 1
    | Ok w ->
      if interval <= 0 then begin
        Printf.eprintf "prefix: error: --interval must be positive\n";
        2
      end
      else
        guard @@ fun () ->
        Prefix_obs.Control.set true;
        let tty = Unix.isatty Unix.stdout in
        let n_samples = ref 0 in
        let frame_lines = ref 0 in
        let fmt v =
          if Float.is_nan v then "-"
          else if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%.4g" v
        in
        let render (s : Prefix_obs.Recorder.sample) =
          incr n_samples;
          let get k =
            match List.assoc_opt k s.Prefix_obs.Recorder.s_values with
            | Some v -> fmt v
            | None -> "-"
          in
          if tty then begin
            let lines =
              [ Printf.sprintf "prefix top — %s  [%s]  sample %d  events %d"
                  w.name s.s_label !n_samples s.s_ev;
                Printf.sprintf "  events/s (segment) %-14s live objects %s"
                  (get "executor.segment_events_per_sec")
                  (get "executor.live_objects");
                Printf.sprintf "  heap live bytes    %-14s cache hit    %s"
                  (get "executor.heap_live_bytes")
                  (get "executor.cache_hit_rate");
                Printf.sprintf "  region peak bytes  %-14s recoveries   %s"
                  (get "executor.region_peak_bytes") (get "executor.recoveries");
                Printf.sprintf "  alloc bytes        p50 %-8s p95 %-8s p99 %s"
                  (get "executor.alloc_bytes.p50") (get "executor.alloc_bytes.p95")
                  (get "executor.alloc_bytes.p99") ]
            in
            (* Move back over the previous frame and redraw each line. *)
            if !frame_lines > 0 then Printf.printf "\027[%dA" !frame_lines;
            List.iter (fun l -> Printf.printf "\027[2K%s\n" l) lines;
            frame_lines := List.length lines;
            flush stdout
          end
          else
            Printf.printf
              "sample %d events=%d label=%s live=%s heap=%s hit=%s evps=%s p99=%s\n%!"
              !n_samples s.s_ev s.s_label
              (get "executor.live_objects")
              (get "executor.heap_live_bytes")
              (get "executor.cache_hit_rate")
              (get "executor.segment_events_per_sec")
              (get "executor.alloc_bytes.p99")
        in
        Prefix_obs.Recorder.configure ~interval_events:interval
          ~wall_interval_ns:250_000_000L ~on_sample:render ();
        let r = Harness.find w.name in
        Prefix_obs.Recorder.disable ();
        Printf.printf "%d samples over %d events x 7 policies (%s)\n" !n_samples
          r.Harness.long_events w.name;
        0
  in
  let interval_arg =
    let doc = "Sample cadence in replay events (default 65536)." in
    Arg.(value & opt int 65536 & info [ "interval" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Replay one benchmark through the streaming engine with a live \
          telemetry dashboard (plain per-sample lines when stdout is not a \
          TTY)")
    Term.(const run $ bench_arg $ scale_arg $ segment_events_arg $ interval_arg
          $ verbose_arg $ log_level_arg)

(* --- all *)

let all_cmd =
  let run jobs verbose log_level =
    setup_logs log_level verbose;
    Harness.set_jobs jobs;
    (* Warm the memo cache across --jobs domains up front; the
       experiments then find every benchmark already replayed. *)
    ignore (Harness.run_all ());
    print_string (Report.run_all ());
    0
  in
  Cmd.v (Cmd.info "all" ~doc:"Reproduce every table and figure")
    Term.(const run $ jobs_arg $ verbose_arg $ log_level_arg)

let () =
  let info =
    Cmd.info "prefix" ~version:"1.0.0"
      ~doc:"PreFix (CGO 2025) reproduction: profile-guided heap layout optimization"
  in
  exit (Cmd.eval' (Cmd.group info [ list_cmd; trace_cmd; plan_cmd; run_cmd; resume_cmd; stats_cmd; fuzz_cmd; hotspots_cmd; lifetimes_cmd; experiment_cmd; validate_cmd; top_cmd; all_cmd ]))
