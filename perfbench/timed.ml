(* A timed model job: the program's own entry point, with nothing of the
   benchmark's inside the timed region.  The report is checked
   afterwards. *)

module Harness = Prefix_experiments.Harness
module Durable = Prefix_experiments.Durable
module Paper_data = Prefix_experiments.Paper_data
module Metrics = Prefix_runtime.Metrics
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Stream = Prefix_trace.Stream
module Packed = Prefix_trace.Packed

let run_job (env : Setup.env) =
  match env.w.kind with
  | Setup.Materialized | Setup.Fanout -> Harness.run_benchmark env.wl
  | Setup.Checkpointed ->
    Prefix_obs.Control.set true;
    Prefix_obs.Recorder.configure ~interval_events:Setup.telemetry_interval ();
    let r = Durable.run_benchmark (Setup.durable_config env) env.wl in
    Prefix_obs.Recorder.disable ();
    Prefix_util.Fsio.atomic_write_string (Setup.telemetry_path env)
      (Prefix_obs.Export.openmetrics ());
    r

(* The seven outcomes in report order. *)
let metrics (r : Harness.result) =
  List.map
    (fun (p : Harness.policy_run) -> p.metrics)
    [ r.baseline; r.hds; r.halo; r.block; r.prefix_hot; r.prefix_hds; r.prefix_hdshot ]

let digest ms = Digest.to_hex (Digest.string (Marshal.to_string ms [ Marshal.No_sharing ]))

(* |best PreFix variant's cycle change - the paper's Table 3 best|, in
   percentage points. *)
let paper_gap (r : Harness.result) =
  match
    List.find_opt (fun (row : Paper_data.table3_row) -> row.name = r.wl.name) Paper_data.table3
  with
  | None -> nan
  | Some row ->
    let best, _ = Harness.best_prefix r in
    abs_float (Harness.time_delta r best -. row.best_pct)

let long_trace (r : Harness.result) =
  match r.long_source with
  | Harness.Materialized p -> Packed.to_trace p
  | Harness.Streamed mk -> Stream.to_trace (mk ())

(* The reference: every policy replayed by the boxed interpreter on the
   same evaluation trace, with the PreFix plans of the run and the other
   plans rebuilt from the same profile.  [perturb] corrupts the
   reference, to show that the check can fail. *)
let oracle ?(perturb = false) (r : Harness.result) =
  let detector = Harness.pipeline_config.detector in
  let prefix_plan (run : Harness.policy_run) =
    match run.plan with Some plan -> plan | None -> failwith "PreFix run without a plan"
  in
  let policies =
    Setup.policies
      ~hds_plan:
        (Prefix_runtime.Hds_policy.plan_of_trace ~detector r.profiling_stats r.profiling_trace)
      ~halo_plan:(Prefix_halo.Halo.plan_of_trace r.profiling_stats r.profiling_trace)
      ~block_plan:(Prefix_runtime.Block_policy.plan_of_trace r.profiling_trace)
      ~prefix_plans:(List.map prefix_plan [ r.prefix_hot; r.prefix_hds; r.prefix_hdshot ])
      { Policy.is_hot = Hashtbl.mem r.long_hot_set; is_hds = Hashtbl.mem r.long_hds_set }
  in
  let trace = long_trace r in
  let differs ((_, policy), (m : Metrics.t)) =
    let o = Executor.run_boxed ~config:Harness.exec_config ~policy trace in
    let reference =
      if perturb then { o.metrics with instructions = o.metrics.instructions + 1 } else o.metrics
    in
    compare reference m <> 0
  in
  match List.find_opt differs (List.combine policies (metrics r)) with
  | None -> Ok ()
  | Some ((label, _), _) ->
    Error (Printf.sprintf "%s: %s differs from the boxed replay" r.wl.name label)

type outputs = {
  digest : string;
  events : int;
  gap : float;
  error : string;  (** why the report failed its check; "" when it passed *)
}

type job = {
  outputs : (outputs, string) result;
  wall_s : float;
  cpu_s : float;
  peak_rss_mb : float;
  eval_passes : int;  (** evaluation-trace generator passes of the job *)
  checkpoints : int;  (** checkpoint saves of the job *)
}

let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
      | kb -> float_of_int kb /. 1024.
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
    | exception End_of_file -> nan
  in
  scan ()

(* The timed call alone, then, outside the timed region, the report's
   figures and [check].  Each job has a process of its own, as each
   [prefix run] has: in a shared process the largest job's peak RSS
   moved by 20% with the collector state the jobs before it left. *)
let run (env : Setup.env) ~check =
  let t0 = Prefix_obs.Clock.now_ns () in
  let c0 = cpu_now () in
  let r = match run_job env with r -> Ok r | exception e -> Error (Printexc.to_string e) in
  let cpu_s = cpu_now () -. c0 in
  let wall_s = Int64.to_float (Int64.sub (Prefix_obs.Clock.now_ns ()) t0) /. 1e9 in
  let peak_rss_mb = peak_rss_mb () in
  let eval_passes = Atomic.get Seeded.eval_passes in
  let checkpoints = Prefix_runtime.Checkpoint.saves () in
  let outputs =
    Result.map
      (fun r ->
        { digest = digest (metrics r);
          events = r.Harness.long_events;
          gap = paper_gap r;
          error =
            (match check r with
            | Ok () -> ""
            | Error e -> e
            | exception e -> "check: " ^ Printexc.to_string e) })
      r
  in
  { outputs; wall_s; cpu_s; peak_rss_mb; eval_passes; checkpoints }
