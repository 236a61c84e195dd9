(* Object recycling (§2.4, Figure 7) on a swissmap-style workload: one
   allocation site creates an endless stream of short-lived objects; the
   plan preallocates a handful of slots and maps the stream onto them
   modulo N, with liveness checks guaranteeing correctness even when the
   profile underestimates concurrency.

   Run with:  dune exec examples/recycling_demo.exe *)

module B = Prefix_workloads.Builder
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module M = Prefix_runtime.Metrics

(* Groups of [group] tables created, probed and destroyed, [rounds]
   times over; metadata allocations fragment the freed space so the
   baseline keeps moving. *)
let program ~rounds ~group () =
  let b = B.create ~seed:11 () in
  for r = 0 to rounds - 1 do
    let tables = List.init group (fun _ -> B.alloc b ~site:1 256) in
    List.iter (fun t -> Prefix_workloads.Patterns.sweep b ~write:true ~stride:64 t) tables;
    Prefix_workloads.Patterns.random_accesses b tables ~n:64;
    if r mod 3 = 0 then ignore (Prefix_workloads.Patterns.cold_block b ~site:5 ~size:144 1);
    B.compute b 500;
    List.iter (fun t -> B.free b t) tables
  done;
  B.trace b

let () =
  let prof = program ~rounds:60 ~group:6 () in
  let plan = Pipeline.plan ~variant:Plan.Hot prof in
  Format.printf "plan: %a@." Plan.pp_summary plan;
  List.iter
    (fun (cp : Plan.counter_plan) ->
      match cp.recycle with
      | Some rb ->
        Printf.printf "counter %d recycles %d slots of %d B for site(s) [%s]\n" cp.counter
          rb.n_slots rb.slot_bytes
          (String.concat ";" (List.map string_of_int cp.counter_sites))
      | None -> Printf.printf "counter %d: no recycling\n" cp.counter)
    plan.counters;

  (* Replay a longer run — more rounds AND a bigger group than profiled,
     to show the overflow fallback keeping things correct. *)
  List.iter
    (fun (label, group) ->
      let long = program ~rounds:600 ~group () in
      let costs = Executor.default_config.costs in
      let base, opt =
        match
          Executor.run_stream_many
            ~policies:
              [ Policy.baseline costs;
                (fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification) ]
            (Prefix_trace.Stream.of_trace long)
        with
        | [ base; opt ] -> (base, opt)
        | _ -> assert false
      in
      Printf.printf
        "%s: time %+.2f%%, malloc/free calls avoided %s, peak %s -> %s B\n" label
        (M.time_pct_change ~baseline:base.metrics opt.metrics)
        (Prefix_util.Tablefmt.fmt_int opt.metrics.calls_avoided)
        (Prefix_util.Tablefmt.fmt_int base.metrics.peak_bytes)
        (Prefix_util.Tablefmt.fmt_int opt.metrics.peak_bytes))
    [ ("same concurrency (group=6) ", 6); ("higher concurrency (group=12)", 12) ]
