(* Ablation studies beyond the paper's tables, exercising the design
   choices DESIGN.md calls out:

   - LCS vs Sequitur stream mining (§3.1 claims LCS is "as effective"),
   - counter sharing on/off (code-size / counter-count effect),
   - recycling slot-count sweep (the N of Figure 7),
   - Algorithm 1's pairwise-merge-only rule vs unbounded merging. *)

module T = Prefix_util.Tablefmt
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Trace_stats = Prefix_trace.Trace_stats
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Counters = Prefix_core.Counters
module Layout = Prefix_core.Layout
module Executor = Prefix_runtime.Executor
module Metrics = Prefix_runtime.Metrics
module Policy = Prefix_runtime.Policy
module Prefix_policy = Prefix_runtime.Prefix_policy

let detector_comparison () =
  let t =
    T.create
      ~headers:
        [ "benchmark"; "LCS streams"; "LCS objs"; "Sequitur streams"; "Sequitur objs";
          "object overlap %" ]
  in
  List.iter
    (fun name ->
      let r = Harness.find name in
      let detect m =
        Detector.detect_with_stats ~config:Harness.pipeline_config.detector ~method_:m
          r.profiling_stats r.profiling_trace
      in
      let lcs = detect Detector.Lcs and seqr = detect Detector.Sequitur in
      let objs streams =
        List.concat_map Hds.objs streams |> List.sort_uniq compare
      in
      let ol = objs lcs and os = objs seqr in
      let inter = List.filter (fun o -> List.mem o os) ol in
      let union = List.sort_uniq compare (ol @ os) in
      let overlap =
        if union = [] then 100.
        else 100. *. float_of_int (List.length inter) /. float_of_int (List.length union)
      in
      T.add_row t
        [ name;
          string_of_int (List.length lcs);
          string_of_int (List.length ol);
          string_of_int (List.length seqr);
          string_of_int (List.length os);
          T.fmt_f overlap ])
    [ "mcf"; "perl"; "libc"; "xalanc" ];
  "Ablation: LCS vs Sequitur stream mining (profiling runs)\n" ^ T.render t

let counter_sharing () =
  let t =
    T.create
      ~headers:[ "benchmark"; "counters (shared)"; "counters (unshared)"; "sites" ]
  in
  List.iter
    (fun name ->
      let r = Harness.find name in
      let plan_with sharing =
        Pipeline.plan_with_stats
          ~config:{ Harness.pipeline_config with counter_sharing = sharing }
          ~variant:Plan.HdsHot r.profiling_stats r.profiling_trace
      in
      let shared = plan_with true and unshared = plan_with false in
      T.add_row t
        [ name;
          string_of_int (Plan.num_counters shared);
          string_of_int (Plan.num_counters unshared);
          string_of_int (Plan.num_sites shared) ])
    [ "mysql"; "mcf"; "omnetpp"; "povray"; "roms"; "libc" ];
  "Ablation: counter sharing on/off\n" ^ T.render t

let recycling_sweep () =
  (* Sweep the recycling headroom factor on leela: fewer slots than the
     peak simultaneous liveness forces fallbacks to malloc; more slots
     waste region space for no benefit.  The six plans replay in one
     fan-out. *)
  let r = Harness.find "leela" in
  let costs = Harness.exec_config.costs in
  let t =
    T.create ~headers:[ "headroom"; "slots"; "calls avoided"; "time vs baseline %" ]
  in
  let sweep =
    List.map
      (fun headroom ->
        let config =
          { Harness.pipeline_config with
            recycle_config = { Harness.pipeline_config.recycle_config with headroom } }
        in
        ( headroom,
          Pipeline.plan_with_stats ~config ~variant:Plan.Hot r.profiling_stats
            r.profiling_trace ))
      [ 0.25; 0.5; 1.0; 1.25; 2.0; 4.0 ]
  in
  let outcomes =
    Executor.run_stream_many ~config:Harness.exec_config
      ~policies:
        (List.map
           (fun (_, plan) heap -> Prefix_policy.policy costs heap plan Policy.no_classification)
           sweep)
      (Harness.long_stream r)
  in
  List.iter2
    (fun (headroom, (plan : Plan.t)) (outcome : Executor.outcome) ->
      T.add_row t
        [ T.fmt_f headroom;
          string_of_int (List.length plan.slots);
          T.fmt_int outcome.metrics.calls_avoided;
          T.fmt_pct (Metrics.time_pct_change ~baseline:r.baseline.metrics outcome.metrics) ])
    sweep outcomes;
  "Ablation: recycling slot headroom sweep (leela)\n" ^ T.render t

let merge_rule () =
  (* Algorithm 1 merges each reconstituted stream at most once.  Compare
     the resulting layouts on the Figure 2 example when that restriction
     is honoured vs when every overlap merges (simulated by re-running
     reconstitution on its own output until a fixpoint). *)
  let result = Exp_fig2.reconstitute () in
  let once = Layout.placement_order result in
  let rec fixpoint streams n =
    if n = 0 then streams
    else begin
      let r = Layout.reconstitute streams in
      if List.length r.rhds = List.length streams then r.rhds
      else fixpoint r.rhds (n - 1)
    end
  in
  let collapsed = fixpoint result.rhds 4 in
  Printf.sprintf
    "Ablation: Algorithm 1 merge restriction (cc1 example)\n\
     pairwise-merge-only: %d streams, %d objects placed\n\
     merge-to-fixpoint:   %d streams (unbounded merging destroys the\n\
     two-stream adjacency guarantee the paper relies on)\n"
    (List.length result.rhds) (List.length once) (List.length collapsed)

(* §2.2.2's hybrid mechanism on a non-deterministic allocation pattern:
   one site reached through two call paths whose interleaving differs
   between the training and evaluation inputs.  Plain instance ids
   misfire; gating the counter on the hot path's signature restores
   precision. *)
let hybrid_context () =
  let module B = Prefix_workloads.Builder in
  let costs = Harness.exec_config.costs in
  let trace ~interleave () =
    let b = B.create ~seed:9 () in
    let hot = ref [] in
    let n_a = ref 0 in
    List.iter
      (fun path ->
        match path with
        | `A ->
          let o = B.alloc b ~site:1 ~ctx:100 32 in
          incr n_a;
          if !n_a <= 3 then hot := o :: !hot else B.access b o 0
        | `B ->
          let o = B.alloc b ~site:1 ~ctx:200 32 in
          B.access b o 0)
      interleave;
    for _ = 1 to 400 do
      List.iter (fun o -> B.access b o 0) (List.rev !hot)
    done;
    B.trace b
  in
  let prof = trace ~interleave:[ `A; `B; `A; `B; `B; `A; `B; `A; `A ] () in
  let long = trace ~interleave:[ `B; `B; `A; `A; `B; `A; `B; `A; `B; `A ] () in
  let stats = Prefix_trace.Trace_stats.analyze long in
  let hot_set = Hashtbl.create 8 in
  List.iter
    (fun (o : Prefix_trace.Trace_stats.obj_info) -> Hashtbl.replace hot_set o.obj ())
    (Prefix_trace.Trace_stats.hot_objects stats);
  let cls = { Policy.is_hot = Hashtbl.mem hot_set; is_hds = (fun _ -> false) } in
  let policy config =
    let plan =
      Pipeline.plan_with_stats ~config ~variant:Plan.Hot
        (Prefix_trace.Trace_stats.analyze prof) prof
    in
    fun heap -> Prefix_policy.policy costs heap plan cls
  in
  match
    Executor.run_stream_many ~config:Harness.exec_config
      ~policies:
        [ policy Harness.pipeline_config;
          policy { Harness.pipeline_config with hybrid_context = true } ]
      (Prefix_trace.Stream.of_trace long)
  with
  | [ id_only; hybrid ] ->
    Printf.sprintf
      "Ablation: hybrid context (object ids + calling context, §2.2.2)\n\
       non-deterministic interleaving, 3 hot objects on one of two call paths:\n\
       id-only capture:  %d hot of %d placed (profiled ids land on the wrong path's objects)\n\
       hybrid capture:   %d hot of %d placed (counter gated on the hot path's signature)\n"
      id_only.metrics.region_hot_objects id_only.metrics.region_objects
      hybrid.metrics.region_hot_objects hybrid.metrics.region_objects
  | _ -> assert false

(* Cache-geometry sensitivity: replay ft under the scaled hierarchy used
   by every experiment and under the paper's full-size geometry.  The
   traces are ~10^5 smaller than the paper's runs, so under a 40 MB LLC
   the spread-out hot set still fits and most of the locality win
   disappears — the quantitative justification for the scaled hierarchy
   (DESIGN.md §2). *)
let geometry_sensitivity () =
  let r = Harness.find "ft" in
  let costs = Harness.exec_config.costs in
  let plan = Option.get r.prefix_hot.plan in
  let t = T.create ~headers:[ "hierarchy"; "baseline Mcycles"; "PreFix:Hot delta %" ] in
  List.iter
    (fun (label, hierarchy) ->
      match
        Executor.run_stream_many
          ~config:{ Harness.exec_config with hierarchy }
          ~policies:
            [ Policy.baseline costs;
              (fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification) ]
          (Harness.long_stream r)
      with
      | [ base; opt ] ->
        T.add_row t
          [ label;
            T.fmt_f (base.metrics.cycles.total_cycles /. 1e6);
            T.fmt_pct (Metrics.time_pct_change ~baseline:base.metrics opt.metrics) ]
      | _ -> assert false)
    [ ("scaled (default)", Prefix_cachesim.Hierarchy.scaled_config);
      ("paper geometry", Prefix_cachesim.Hierarchy.paper_config) ];
  "Ablation: cache-geometry sensitivity (ft) — why the hierarchy is scaled\n"
  ^ T.render t

let report () =
  String.concat "\n"
    [ detector_comparison (); counter_sharing (); recycling_sweep (); merge_rule ();
      hybrid_context (); geometry_sensitivity () ]
