(* Benchmark harness.

   Two halves:

   1. The paper reproduction — regenerates every table and figure of the
      evaluation section (Tables 2-6, Figures 1, 2, 9-14) plus the
      ablations, printing measured values next to the paper's.  Run all
      with no arguments, or a subset with e.g.
        dune exec bench/main.exe -- table3 fig9
   2. Bechamel micro-benchmarks of the analysis algorithms (one
      Test.make group per pipeline stage), enabled with the `micro`
      argument.

   Plus `throughput [--benches a,b] [--out FILE]`: replay every
   benchmark's Profiling-scale trace per policy through both executor
   paths (boxed reference vs packed struct-of-arrays), print events/s,
   and write BENCH_replay.json; exits non-zero if the paths' outcomes
   ever differ.

   And `telemetry [--benches a,b] [--out FILE]`: replay each benchmark's
   Profiling-scale trace with the continuous flight recorder off and on,
   print the throughput cost of telemetry, and write
   BENCH_telemetry.json; exits non-zero if the geomean overhead exceeds
   the 3% budget.

   And `checkpoint [--benches a,b] [--out FILE]`: replay each
   benchmark's Long-scale trace through the segment-session path with
   checkpointing off and on (full session snapshots at segment cadence,
   wall-clock throttled as in the durable runner, measured over chains
   of back-to-back replays), print the throughput cost of crash safety,
   and write BENCH_checkpoint.json; exits non-zero if the geomean
   overhead exceeds the 3% budget.

   And `block [--benches a,b] [--out FILE]`: replay each benchmark's
   Profiling-scale trace under baseline, the Immix-style Block policy,
   and PreFix:HDS+Hot planned twice — modulo-N recycling vs greedy
   interval coloring — print simulated cycles, recycling evictions and
   events/s, and write BENCH_block.json; exits non-zero if any replay
   breaks the footprint invariants (placement must never change the
   memory-reference stream, and interval coloring must never evict
   more than modulo does).

   Every BENCH_*.json carries a provenance header (ocaml_version,
   word_size, reps, scale) so stored artifacts remain interpretable.

   `--jobs N` (anywhere on the command line) sizes the domain pool used
   by the paper-reproduction harness and the `reps` repetition sweep;
   the default is the runtime's recommended domain count.  Reports are
   bit-identical for every N. *)

module R = Prefix_experiments.Report
module Harness = Prefix_experiments.Harness
module Pool = Prefix_parallel.Pool
module Rng = Prefix_util.Rng
module Stats = Prefix_util.Stats

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  (* A mid-size synthetic input shared by the analysis benches. *)
  let wl = Prefix_workloads.Registry.find "libc" in
  let trace = wl.generate ~scale:Profiling ~seed:7 () in
  let stats = Prefix_trace.Trace_stats.analyze trace in
  let seq = Prefix_hds.Detector.hot_sequence stats trace in
  let seq = Array.sub seq 0 (min 2048 (Array.length seq)) in
  let ohds = Prefix_hds.Detector.detect_with_stats stats trace in
  let tests =
    [ Test.make ~name:"trace-stats" (Staged.stage (fun () ->
          ignore (Prefix_trace.Trace_stats.analyze trace)));
      Test.make ~name:"lcs-dp" (Staged.stage (fun () ->
          let a = Array.sub seq 0 (min 256 (Array.length seq)) in
          ignore (Prefix_hds.Lcs.lcs a a)));
      Test.make ~name:"sequitur" (Staged.stage (fun () ->
          ignore (Prefix_hds.Sequitur.build seq)));
      Test.make ~name:"detector-lcs" (Staged.stage (fun () ->
          ignore (Prefix_hds.Detector.detect_with_stats stats trace)));
      Test.make ~name:"detector-sequitur" (Staged.stage (fun () ->
          ignore
            (Prefix_hds.Detector.detect_with_stats ~method_:Prefix_hds.Detector.Sequitur
               stats trace)));
      Test.make ~name:"reconstitute" (Staged.stage (fun () ->
          ignore (Prefix_core.Layout.reconstitute ohds)));
      Test.make ~name:"plan-pipeline" (Staged.stage (fun () ->
          ignore
            (Prefix_core.Pipeline.plan_with_stats ~variant:Prefix_core.Plan.HdsHot stats
               trace)));
      Test.make ~name:"allocator-churn" (Staged.stage (fun () ->
          let a = Prefix_heap.Allocator.create () in
          let addrs = Array.init 512 (fun i -> Prefix_heap.Allocator.malloc a (16 + (i mod 8 * 16))) in
          Array.iter (fun addr -> Prefix_heap.Allocator.free a addr) addrs));
      Test.make ~name:"cache-access" (Staged.stage (fun () ->
          let h = Prefix_cachesim.Hierarchy.create ~config:Prefix_cachesim.Hierarchy.scaled_config () in
          for i = 0 to 4095 do
            Prefix_cachesim.Hierarchy.access h (i * 48)
          done));
      (* Observability must be free when off: these measure the
         disabled-mode cost of the span and metric fast paths (a single
         bool-ref check each). *)
      Test.make ~name:"obs-span-off" (Staged.stage (fun () ->
          for _ = 1 to 1024 do
            ignore (Prefix_obs.Span.with_ "bench" (fun () -> ()))
          done));
      Test.make ~name:"obs-metric-off" (Staged.stage (
          let c = Prefix_obs.Metric.counter "bench.counter" in
          fun () ->
            for _ = 1 to 1024 do
              Prefix_obs.Metric.incr c
            done)) ]
  in
  let benchmark test =
    let quota = Time.second 0.25 in
    Benchmark.all (Benchmark.cfg ~limit:1000 ~quota ~kde:None ()) Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-20s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-20s (no estimate)\n%!" name)
        results)
    tests

(* Repetition sweep: re-measure the seed-sensitive benchmarks' best
   PreFix delta across [n] fresh workload seeds, fanned out over the
   pool.  Each repetition's generator is split off a fixed root
   sequentially *before* the fan-out, so the seeds (and therefore every
   number printed) are identical whatever --jobs is. *)
let run_reps ~jobs n =
  let benchmarks = [ "mcf"; "libc" ] in
  let root = Rng.create 0xC0FFEE in
  let rngs = List.init n (fun _ -> Rng.split root) in
  let reps =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool
          (fun rng ->
            let seed = Rng.int rng 1_000_000 in
            let deltas =
              List.map
                (fun b -> Prefix_experiments.Exp_stability.delta_for b seed)
                benchmarks
            in
            (seed, Stats.mean deltas))
          rngs)
  in
  Printf.printf "=== %d repetitions over %s (%d jobs) ===\n" n
    (String.concat ", " benchmarks) jobs;
  List.iteri
    (fun i (seed, d) -> Printf.printf "rep %2d  seed %6d  best-PreFix %+.2f%%\n" i seed d)
    reps;
  let ds = List.map snd reps in
  Printf.printf "mean %+.2f%%  min %+.2f%%  max %+.2f%%  stddev(n-1) %.3f\n"
    (Stats.mean ds)
    (List.fold_left min infinity ds)
    (List.fold_left max neg_infinity ds)
    (Stats.stddev_sample ds)

(* Provenance header for every BENCH_*.json artifact: enough to
   interpret a stored run later — which compiler and bitness produced
   the numbers, how many repetitions backed each figure, and at what
   workload scale. *)
let provenance_json ~reps ~scale =
  Printf.sprintf
    "  \"ocaml_version\": %S,\n  \"word_size\": %d,\n  \"reps\": %d,\n  \
     \"scale\": %S,\n"
    Sys.ocaml_version Sys.word_size reps scale

(* Replay-throughput comparison: every benchmark's Profiling-scale trace
   replayed under each policy through both executor paths — the boxed
   reference interpreter and the packed struct-of-arrays fast path.
   Beyond the events/s table this doubles as a differential test: the
   two paths must produce structurally identical metrics (same counters,
   same cycles, same recovery), and any divergence fails the run. *)
let run_throughput ~benches ~out =
  let module Trace_stats = Prefix_trace.Trace_stats in
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  let costs = Executor.default_config.costs in
  let reps = 10 in
  let time_ns f =
    (* Best of [reps] after one warmup — replays are deterministic, so
       min is the least-noise estimator. *)
    ignore (f ());
    let best = ref Int64.max_int in
    for _ = 1 to reps do
      let t0 = Prefix_obs.Clock.now_ns () in
      ignore (f ());
      let dt = Int64.sub (Prefix_obs.Clock.now_ns ()) t0 in
      if dt < !best then best := dt
    done;
    Int64.to_float !best /. 1e9
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("{\n" ^ provenance_json ~reps ~scale:"profiling" ^ "  \"benches\": [");
  let speedups = ref [] in
  let all_equal = ref true in
  Printf.printf "=== replay throughput: boxed vs packed (Profiling scale) ===\n";
  Printf.printf "%-10s %-12s %14s %14s %8s  %s\n" "bench" "policy" "boxed ev/s"
    "packed ev/s" "speedup" "metrics";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let trace = wl.generate ~scale:Profiling ~seed:7 () in
      let packed = Packed.of_trace trace in
      let events = Packed.length packed in
      let stats = Trace_stats.analyze_packed packed in
      let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats trace in
      let halo_plan = Prefix_halo.Halo.plan_of_trace stats trace in
      let prefix_plan = Pipeline.plan_with_stats ~variant:Plan.HdsHot stats trace in
      let policies =
        [ ("baseline", fun heap -> Policy.baseline costs heap);
          ("HDS",
           fun heap ->
             Prefix_runtime.Hds_policy.policy costs heap hds_plan Policy.no_classification);
          ("HALO",
           fun heap ->
             Prefix_runtime.Halo_policy.policy costs heap halo_plan
               Policy.no_classification);
          ("PreFix",
           fun heap ->
             Prefix_runtime.Prefix_policy.policy costs heap prefix_plan
               Policy.no_classification) ]
      in
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"bench\": %S, \"events\": %d, \"policies\": [" name
           events);
      List.iteri
        (fun pi (pname, policy) ->
          let boxed = Executor.run_boxed ~policy trace in
          let packed_o = Executor.run_packed ~policy packed in
          let equal =
            boxed.Executor.metrics = packed_o.Executor.metrics
            && boxed.Executor.recovery = packed_o.Executor.recovery
          in
          if not equal then all_equal := false;
          let t_boxed = time_ns (fun () -> Executor.run_boxed ~policy trace) in
          let t_packed = time_ns (fun () -> Executor.run_packed ~policy packed) in
          let rate t = if t > 0. then float_of_int events /. t else 0. in
          let speedup = if t_packed > 0. then t_boxed /. t_packed else 0. in
          speedups := speedup :: !speedups;
          Printf.printf "%-10s %-12s %14.0f %14.0f %7.2fx  %s\n" name pname
            (rate t_boxed) (rate t_packed) speedup
            (if equal then "identical" else "MISMATCH");
          if pi > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n      { \"policy\": %S, \"boxed_events_per_sec\": %.0f, \
                \"packed_events_per_sec\": %.0f, \"speedup\": %.3f, \
                \"metrics_equal\": %b }"
               pname (rate t_boxed) (rate t_packed) speedup equal))
        policies;
      Buffer.add_string buf " ] }")
    benches;
  let geomean =
    match !speedups with
    | [] -> 1.
    | ss ->
      exp (List.fold_left (fun a s -> a +. log (max 1e-9 s)) 0. ss
           /. float_of_int (List.length ss))
  in
  Buffer.add_string buf
    (Printf.sprintf " ],\n  \"geomean_speedup\": %.3f,\n  \"all_equal\": %b\n}\n"
       geomean !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean speedup %.2fx over %d (bench, policy) pairs; wrote %s\n"
    geomean (List.length !speedups) out;
  if not !all_equal then begin
    prerr_endline "bench: packed and boxed replay outcomes differ";
    exit 1
  end

(* Flight-recorder overhead: replay each benchmark's Profiling-scale
   packed trace under the baseline policy with observability on, first
   with the recorder disabled and then recording at the default cadence,
   and report the throughput cost of continuous telemetry.  Both legs
   pay the same span/metric cost, so the delta isolates the recorder:
   one integer compare per event plus a registry snapshot every 2^16
   events.  Budget: 3% geomean. *)
let run_telemetry ~benches ~out =
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let costs = Executor.default_config.costs in
  let reps = 8 in
  let time1 f =
    let t0 = Prefix_obs.Clock.now_ns () in
    ignore (f ());
    Int64.sub (Prefix_obs.Clock.now_ns ()) t0
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("{\n" ^ provenance_json ~reps ~scale:"long" ^ "  \"benches\": [");
  let ratios = ref [] in
  (* Long-scale traces: each timed replay runs ~10^2 ms, long enough
     that container noise stays small next to the work being gated. *)
  Printf.printf "=== flight-recorder overhead (Long scale, baseline policy) ===\n";
  Printf.printf "%-10s %14s %14s %9s\n" "bench" "off ev/s" "on ev/s" "overhead";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let packed = Packed.of_trace (wl.generate ~scale:Long ~seed:8 ()) in
      let events = Packed.length packed in
      let run () =
        Executor.run_packed ~policy:(fun heap -> Policy.baseline costs heap) packed
      in
      (* Each rep times the two legs back to back (off, then on) and
         contributes one paired ratio; the overhead estimate is the
         median ratio.  Pairing cancels slow drift, the median discards
         the noise spikes a shared machine throws at individual reps,
         and taking the per-leg min of the same samples gives the
         throughput figures. *)
      Prefix_obs.Control.set true;
      ignore (run ());
      let best_off = ref Int64.max_int and best_on = ref Int64.max_int in
      let pair_ratios =
        Array.init reps (fun _ ->
            Prefix_obs.Recorder.disable ();
            let d_off = time1 run in
            if d_off < !best_off then best_off := d_off;
            Prefix_obs.Recorder.configure ();
            let d_on = time1 run in
            if d_on < !best_on then best_on := d_on;
            Int64.to_float d_on /. Int64.to_float d_off)
      in
      Prefix_obs.Recorder.disable ();
      Prefix_obs.Control.set false;
      Array.sort compare pair_ratios;
      let median =
        let n = Array.length pair_ratios in
        if n land 1 = 1 then pair_ratios.(n / 2)
        else (pair_ratios.((n / 2) - 1) +. pair_ratios.(n / 2)) /. 2.
      in
      let t_off = Int64.to_float !best_off /. 1e9 in
      let t_on = Int64.to_float !best_on /. 1e9 in
      let rate t = if t > 0. then float_of_int events /. t else 0. in
      let overhead = median -. 1. in
      ratios := (1. +. max 0. overhead) :: !ratios;
      Printf.printf "%-10s %14.0f %14.0f %8.2f%%\n" name (rate t_off) (rate t_on)
        (100. *. overhead);
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \"off_events_per_sec\": %.0f, \
            \"on_events_per_sec\": %.0f, \"overhead_pct\": %.2f }"
           name events (rate t_off) (rate t_on) (100. *. overhead)))
    benches;
  let geomean =
    match !ratios with
    | [] -> 1.
    | rs ->
      exp (List.fold_left (fun a r -> a +. log r) 0. rs /. float_of_int (List.length rs))
  in
  let geomean_pct = 100. *. (geomean -. 1.) in
  let budget_pct = 3.0 in
  Buffer.add_string buf
    (Printf.sprintf " ],\n  \"geomean_overhead_pct\": %.2f,\n  \"budget_pct\": %.1f\n}\n"
       geomean_pct budget_pct);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean recorder overhead %.2f%% (budget %.1f%%); wrote %s\n" geomean_pct
    budget_pct out;
  if geomean_pct > budget_pct then begin
    Printf.eprintf "bench: recorder overhead %.2f%% exceeds %.1f%% budget\n" geomean_pct
      budget_pct;
    exit 1
  end

(* Checkpointing overhead: replay each benchmark's Long-scale trace
   under the baseline policy through the segment-session path, first
   without checkpoints and then with the durable runner's save policy —
   a full session snapshot (atomic write + fsync) at segment cadence,
   wall-clock throttled to one save per [default_throttle_ms].  Each
   timed sample chains several back-to-back replays with the throttle
   clock carried across them, so it measures the steady state of a
   long-running job rather than a single short replay's worth of save
   alignment.  The JSON reports the observed save count per sample so
   a passing gate is demonstrably non-vacuous.  Same paired-median
   methodology as the telemetry gate, same 3% budget. *)
let run_checkpoint_bench ~benches ~out =
  let module Packed = Prefix_trace.Packed in
  let module Stream = Prefix_trace.Stream in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Checkpoint = Prefix_runtime.Checkpoint in
  let costs = Executor.default_config.costs in
  let reps = 5 in
  (* Several replays per timed sample, so each on-leg sample spans
     multiple throttle windows (a Long replay alone can finish inside
     one). *)
  let chain = 10 in
  (* Small segments: dense save *opportunities*, as a real long run
     with --checkpoint-every would have.  The throttle, not the
     cadence, must be what bounds the cost. *)
  let segment_events = 8192 in
  let every = 4 in
  let throttle_ms = Checkpoint.default_throttle_ms in
  let dir = Filename.temp_file "bench-ckpt" "" in
  Sys.remove dir;
  Prefix_util.Fsio.mkdir_p dir;
  let now_ms () = Int64.to_float (Prefix_obs.Clock.now_ns ()) /. 1e6 in
  let time1 f =
    let t0 = Prefix_obs.Clock.now_ns () in
    ignore (f ());
    Int64.sub (Prefix_obs.Clock.now_ns ()) t0
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("{\n" ^ provenance_json ~reps ~scale:"long" ^ "  \"benches\": [");
  let ratios = ref [] in
  Printf.printf
    "=== checkpointing overhead (Long scale, baseline policy, %d-replay \
     chains, save cadence %d x %d events, throttle %.0fms) ===\n"
    chain every segment_events throttle_ms;
  Printf.printf "%-10s %14s %14s %9s %7s\n" "bench" "off ev/s" "on ev/s"
    "overhead" "saves";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let packed = Packed.of_trace (wl.generate ~scale:Long ~seed:8 ()) in
      let events = Packed.length packed in
      let ckpt_path = Filename.concat dir (name ^ ".ckpt") in
      let saves_last = ref 0 in
      let run ~save () =
        let saved = ref 0 in
        let last_save = ref (now_ms ()) in
        for _ = 1 to chain do
          let heap = Prefix_heap.Allocator.create () in
          let p = Policy.baseline costs heap in
          let st =
            Executor.session_create ~config:Executor.default_config
              ~mode:Policy.Strict ~heatmap_objs:None ~attribute:false ~heap ~p
          in
          let segs = ref 0 in
          Stream.iter_segments (Stream.of_packed ~segment_events packed)
            (fun ~base seg ->
              Executor.replay_segment st ~base seg;
              incr segs;
              if
                save && !segs mod every = 0
                && now_ms () -. !last_save >= throttle_ms
              then begin
                Checkpoint.save ~path:ckpt_path
                  { Checkpoint.kind = "session";
                    meta = [ ("bench", name) ];
                    event_index = Executor.session_events st }
                  ~payload:(Executor.session_serialize st);
                incr saved;
                last_save := now_ms ()
              end);
          ignore (Executor.session_finish st)
        done;
        saves_last := !saved
      in
      run ~save:false ();
      let best_off = ref Int64.max_int and best_on = ref Int64.max_int in
      let total_saves = ref 0 in
      let pair_ratios =
        Array.init reps (fun _ ->
            let d_off = time1 (run ~save:false) in
            if d_off < !best_off then best_off := d_off;
            let d_on = time1 (run ~save:true) in
            total_saves := !total_saves + !saves_last;
            if d_on < !best_on then best_on := d_on;
            Int64.to_float d_on /. Int64.to_float d_off)
      in
      Array.sort compare pair_ratios;
      let median =
        let n = Array.length pair_ratios in
        if n land 1 = 1 then pair_ratios.(n / 2)
        else (pair_ratios.((n / 2) - 1) +. pair_ratios.(n / 2)) /. 2.
      in
      let chain_events = events * chain in
      let t_off = Int64.to_float !best_off /. 1e9 in
      let t_on = Int64.to_float !best_on /. 1e9 in
      let rate t = if t > 0. then float_of_int chain_events /. t else 0. in
      let overhead = median -. 1. in
      ratios := (1. +. max 0. overhead) :: !ratios;
      Printf.printf "%-10s %14.0f %14.0f %8.2f%% %7d\n" name (rate t_off)
        (rate t_on)
        (100. *. overhead)
        !total_saves;
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \"off_events_per_sec\": %.0f, \
            \"on_events_per_sec\": %.0f, \"overhead_pct\": %.2f, \"saves\": %d }"
           name chain_events (rate t_off) (rate t_on)
           (100. *. overhead)
           !total_saves))
    benches;
  let geomean =
    match !ratios with
    | [] -> 1.
    | rs ->
      exp (List.fold_left (fun a r -> a +. log r) 0. rs /. float_of_int (List.length rs))
  in
  let geomean_pct = 100. *. (geomean -. 1.) in
  let budget_pct = 3.0 in
  Buffer.add_string buf
    (Printf.sprintf
       " ],\n  \"checkpoint_every_segments\": %d,\n  \
        \"segment_events\": %d,\n  \"throttle_ms\": %.0f,\n  \
        \"replays_per_sample\": %d,\n  \
        \"geomean_overhead_pct\": %.2f,\n  \"budget_pct\": %.1f\n}\n"
       every segment_events throttle_ms chain geomean_pct budget_pct);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean checkpoint overhead %.2f%% (budget %.1f%%); wrote %s\n"
    geomean_pct budget_pct out;
  if geomean_pct > budget_pct then begin
    Printf.eprintf "bench: checkpoint overhead %.2f%% exceeds %.1f%% budget\n"
      geomean_pct budget_pct;
    exit 1
  end

(* Interval-colored vs modulo-N recycling, plus the Block policy itself.
   Each benchmark's Profiling-scale trace (the input whose liveness the
   interval pass saw, so coloring covers every instance) is replayed
   under four policies: baseline, Block, and PreFix:HDS+Hot planned with
   --slots modulo and --slots interval.  All four replays are
   deterministic, so the gate is on simulated metrics, not wall time:

   - footprint invariants: placement never changes the memory-reference
     stream (all four replays must agree on mem_refs), and interval
     coloring — which provably never double-books a slot the profile
     covers — must not evict more than modulo-N does;
   - the headline: cycles(modulo) / cycles(interval), geomean'd, which
     shows the coloring win on lifetime-skewed workloads.

   Wall-clock events/s for the two PreFix replays is reported too
   (best-of-reps), but only the metric gate can fail the run. *)
let run_block_bench ~benches ~out =
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  let module Trace_stats = Prefix_trace.Trace_stats in
  let costs = Executor.default_config.costs in
  let reps = 5 in
  let time_ns f =
    (* Best of [reps] after one warmup — replays are deterministic, so
       min is the least-noise estimator. *)
    ignore (f ());
    let best = ref Int64.max_int in
    for _ = 1 to reps do
      let t0 = Prefix_obs.Clock.now_ns () in
      ignore (f ());
      let dt = Int64.sub (Prefix_obs.Clock.now_ns ()) t0 in
      if dt < !best then best := dt
    done;
    Int64.to_float !best /. 1e9
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    ("{\n" ^ provenance_json ~reps ~scale:"profiling" ^ "  \"benches\": [");
  let all_equal = ref true in
  let speedups = ref [] in
  Printf.printf
    "=== block policy + interval-colored vs modulo-N recycling (Profiling \
     scale) ===\n";
  Printf.printf "%-10s %10s %11s %14s %14s %8s  %s\n" "bench" "events"
    "evictions" "modulo cyc" "interval cyc" "speedup" "invariants";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let trace = wl.generate ~scale:Profiling ~seed:7 () in
      let packed = Packed.of_trace trace in
      let events = Packed.length packed in
      let stats = Trace_stats.analyze_packed packed in
      let plan_with mode =
        Pipeline.plan_with_stats
          ~config:{ Pipeline.default_config with slot_mode = mode }
          ~variant:Plan.HdsHot stats trace
      in
      let plan_mod = plan_with Pipeline.Modulo in
      let plan_int = plan_with Pipeline.Interval in
      let block_plan = Prefix_runtime.Block_policy.plan_of_trace trace in
      let cls = Policy.no_classification in
      (* Replay capturing the policy record, for its eviction counters. *)
      let replay mk =
        let p = ref None in
        let policy heap =
          let pol = mk heap in
          p := Some pol;
          pol
        in
        let o = Executor.run_packed ~policy packed in
        (o, Option.get !p)
      in
      let base_o, _ = replay (fun heap -> Policy.baseline costs heap) in
      let block_o, _ =
        replay (fun heap ->
            Prefix_runtime.Block_policy.policy costs heap block_plan cls)
      in
      let prefix_replay plan () =
        replay (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan cls)
      in
      let mod_o, mod_p = prefix_replay plan_mod () in
      let int_o, int_p = prefix_replay plan_int () in
      let cyc (o : Executor.outcome) = o.metrics.cycles.total_cycles in
      let refs (o : Executor.outcome) = o.metrics.mem_refs in
      let mod_ev = mod_p.Policy.stats.recycle_evictions in
      let int_ev = int_p.Policy.stats.recycle_evictions in
      let refs_equal =
        refs mod_o = refs base_o && refs int_o = refs base_o
        && refs block_o = refs base_o
      in
      let ok = refs_equal && int_ev <= mod_ev in
      if not ok then all_equal := false;
      let speedup = if cyc int_o > 0. then cyc mod_o /. cyc int_o else 0. in
      speedups := speedup :: !speedups;
      let t_mod = time_ns (fun () -> prefix_replay plan_mod ()) in
      let t_int = time_ns (fun () -> prefix_replay plan_int ()) in
      let rate t = if t > 0. then float_of_int events /. t else 0. in
      let block_pct =
        100. *. (cyc block_o -. cyc base_o) /. Float.max 1. (cyc base_o)
      in
      Printf.printf "%-10s %10d %5d->%-5d %14.0f %14.0f %7.3fx  %s\n" name events
        mod_ev int_ev (cyc mod_o) (cyc int_o) speedup
        (if ok then "ok" else "VIOLATED");
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \"baseline_cycles\": %.0f, \
            \"block_cycles\": %.0f, \"block_vs_baseline_pct\": %.2f, \
            \"modulo_cycles\": %.0f, \"interval_cycles\": %.0f, \
            \"cycle_speedup\": %.4f, \"modulo_evictions\": %d, \
            \"interval_evictions\": %d, \"modulo_events_per_sec\": %.0f, \
            \"interval_events_per_sec\": %.0f, \"invariants_ok\": %b }"
           name events (cyc base_o) (cyc block_o) block_pct (cyc mod_o)
           (cyc int_o) speedup mod_ev int_ev (rate t_mod) (rate t_int) ok))
    benches;
  let geomean =
    match !speedups with
    | [] -> 1.
    | ss ->
      exp (List.fold_left (fun a s -> a +. log (max 1e-9 s)) 0. ss
           /. float_of_int (List.length ss))
  in
  Buffer.add_string buf
    (Printf.sprintf
       " ],\n  \"geomean_cycle_speedup\": %.4f,\n  \"all_equal\": %b\n}\n"
       geomean !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf
    "geomean interval-over-modulo cycle speedup %.3fx over %d benches; wrote %s\n"
    geomean (List.length !speedups) out;
  if not !all_equal then begin
    prerr_endline "bench: block/interval replay broke a footprint invariant";
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Pull a `--jobs N` pair out of the argument list wherever it sits. *)
  let rec extract_jobs acc = function
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n -> (Some n, List.rev_append acc rest)
      | None ->
        prerr_endline "bench: --jobs expects an integer";
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "bench: --jobs expects an integer";
      exit 2
    | a :: rest -> extract_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs_opt, args = extract_jobs [] args in
  let jobs = match jobs_opt with Some j -> max 1 j | None -> Pool.default_jobs () in
  Harness.set_jobs jobs;
  match args with
  | [ "micro" ] ->
    print_endline "=== Bechamel micro-benchmarks (analysis pipeline) ===";
    run_micro ()
  | "csv" :: rest ->
    let dir = match rest with [ d ] -> d | _ -> "results" in
    Prefix_experiments.Export.write_all dir
  | "reps" :: rest ->
    let n = match rest with [ n ] -> int_of_string n | _ -> 10 in
    run_reps ~jobs n
  | "throughput" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: throughput: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_replay.json" rest
    in
    run_throughput ~benches ~out
  | "block" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: block: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_block.json" rest
    in
    run_block_bench ~benches ~out
  | "telemetry" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: telemetry: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_telemetry.json" rest
    in
    run_telemetry ~benches ~out
  | "checkpoint" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: checkpoint: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_checkpoint.json" rest
    in
    run_checkpoint_bench ~benches ~out
  | [] ->
    print_endline "=== PreFix paper reproduction: all tables and figures ===";
    (* Replay the 13 benchmarks across the pool once; every experiment
       below then hits the memo cache. *)
    ignore (Harness.run_all ());
    print_string (R.run_all ());
    print_endline "=== done ==="
  | ids ->
    List.iter
      (fun id ->
        match R.find id with
        | Some e -> print_string (e.run ())
        | None ->
          Printf.printf "unknown experiment %S; available: %s, micro\n" id
            (String.concat ", " (List.map (fun (e : R.experiment) -> e.id) R.all
                                  @ [ "csv"; "reps"; "throughput"; "block";
                                      "telemetry"; "checkpoint" ])))
      ids
