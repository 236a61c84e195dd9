(* The replay-equivalence matrix: every way `prefix run` can replay a
   benchmark's seven policies must print the same report.  Cells, for
   libc and mysql (realloc-heavy, two threads) at Long scale, seed 7:

   - a generator stream and a columnar container, each at 65,536- and
     1,000-event segments;
   - a generator stream with the flight recorder on;
   - a pooled [Harness.run_many ~jobs:2] over both models;
   - [Durable.run_benchmark], streamed and materialized, checkpointing
     every segment.

   Each cell's report must equal that model's section of
   golden_run_reports.expected.  The materialized trace (a one-segment
   stream) is the headline suite's "run reports golden".  [jobs] spreads
   only independent benchmarks: the columnar 1,000-event cell, rerun at
   jobs 4 with observability on, must print the golden report without
   running a single pool task.  A last cell replays roms and swissmap
   with interval-colored slots through [run_many] at jobs 1 and 2; the
   two renders must agree.  Every harness setting, the recorder and
   observability are restored afterwards, and the memo cache cleared. *)

module Harness = Prefix_experiments.Harness
module Durable = Prefix_experiments.Durable
module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry

let defaults () =
  Harness.set_streaming false;
  Harness.set_segment_events None;
  Harness.set_stream_container `Generator;
  Harness.set_eval_scale Workload.Long;
  Harness.set_slot_mode Prefix_core.Pipeline.Modulo;
  Harness.set_jobs 1;
  Prefix_obs.Recorder.disable ();
  Prefix_obs.Control.set false;
  Harness.clear_cache ()

let with_defaults f = Fun.protect ~finally:defaults (fun () -> defaults (); f ())

let models = [ "libc"; "mysql" ]

(* A streamed harness cell: the default settings plus the cell's own,
   then one fresh (uncached) run of the model. *)
let harness_cell ?(recorder = false) ?(obs = recorder) ?(jobs = 1) ?segment_events
    ?(container = `Generator) () name =
  defaults ();
  Harness.set_streaming true;
  Harness.set_segment_events segment_events;
  Harness.set_stream_container container;
  Harness.set_jobs jobs;
  Prefix_obs.Control.set obs;
  if recorder then Prefix_obs.Recorder.configure ~interval_events:65_536 ();
  Durable.render (Harness.run_benchmark (Registry.find name))

let durable_cell ~streaming name =
  Test_checkpoint.with_temp_dir @@ fun dir ->
  let cfg = { (Durable.default ~dir) with every = 1; throttle_ms = 0.; streaming } in
  Durable.render (Durable.run_benchmark cfg (Registry.find name))

let cells =
  [ ("generator 65536", harness_cell ~segment_events:65_536 ());
    ("generator 1000", harness_cell ~segment_events:1_000 ());
    ("columnar 65536", harness_cell ~segment_events:65_536 ~container:`Columnar ());
    ("columnar 1000", harness_cell ~segment_events:1_000 ~container:`Columnar ());
    ("generator + recorder", harness_cell ~recorder:true ());
    ("durable streamed", durable_cell ~streaming:true);
    ("durable materialized", durable_cell ~streaming:false) ]

let expected name =
  match List.assoc_opt name (Test_headline.golden_sections ()) with
  | Some s -> s
  | None -> Alcotest.failf "no golden report for %s" name

let test_matrix () =
  with_defaults @@ fun () ->
  List.iter
    (fun name ->
      List.iter
        (fun (cell, run) ->
          Alcotest.(check string) (Printf.sprintf "%s: %s" name cell) (expected name) (run name))
        cells)
    models;
  defaults ();
  List.iter2
    (fun name r ->
      Alcotest.(check string) (name ^ ": run_many jobs 2") (expected name) (Durable.render r))
    models
    (Harness.run_many ~jobs:2 models)

let pool_tasks () =
  Option.value ~default:0
    (List.assoc_opt "parallel.tasks" (Prefix_obs.Metric.snapshot ()).counters)

let test_one_domain_per_run () =
  with_defaults @@ fun () ->
  List.iter
    (fun name ->
      let before = pool_tasks () in
      let report =
        harness_cell ~obs:true ~jobs:4 ~segment_events:1_000 ~container:`Columnar () name
      in
      Alcotest.(check string) (name ^ ": columnar 1000, jobs 4") (expected name) report;
      Alcotest.(check int) (name ^ ": parallel.tasks unchanged") before (pool_tasks ()))
    models

let test_interval_slots_jobs () =
  with_defaults @@ fun () ->
  let render jobs =
    defaults ();
    Harness.set_slot_mode Prefix_core.Pipeline.Interval;
    String.concat "" (List.map Durable.render (Harness.run_many ~jobs [ "roms"; "swissmap" ]))
  in
  let sequential = render 1 in
  Alcotest.(check string) "interval slots, jobs 1 = jobs 2" sequential (render 2)

let suite =
  [ ( "replay-matrix",
      [ Alcotest.test_case "every replay path prints the golden report" `Slow test_matrix;
        Alcotest.test_case "one domain per run: jobs 4 runs no pool task" `Slow
          test_one_domain_per_run;
        Alcotest.test_case "interval slots report, jobs 1 vs 2" `Slow test_interval_slots_jobs ]
    ) ]
