(* Tests for the hybrid (object id + calling context) mechanism of
   §2.2.2, implemented as `Pipeline.config.hybrid_context` and the
   per-counter ctx gate in the PreFix policy. *)

module Allocator = Prefix_heap.Allocator
module Arena = Prefix_heap.Arena
module Plan = Prefix_core.Plan
module Context = Prefix_core.Context
module Pipeline = Prefix_core.Pipeline
module Prefix_policy = Prefix_runtime.Prefix_policy
module Policy = Prefix_runtime.Policy
module Executor = Prefix_runtime.Executor
module Costs = Prefix_runtime.Costs
module B = Prefix_workloads.Builder

let costs = Costs.default

let hybrid_config = { Pipeline.default_config with hybrid_context = true }

(* A "non-deterministic server" program: one malloc site reached through
   two call paths.  Path A (ctx 100) allocates the hot connection state;
   path B (ctx 200) allocates cold log records.  The *interleaving* of
   the two paths depends on request arrival order, so plain instance ids
   are unstable across runs — but within path A the numbering is stable.

   [pattern] gives the per-step path order; hot objects are always the
   first three A-allocations. *)
let server_trace ~interleave () =
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
  let hot = List.rev !hot in
  for _ = 1 to 200 do
    List.iter (fun o -> B.access b o 0) hot
  done;
  B.trace b

(* Training-run arrival order vs evaluation-run arrival order: the B
   allocations land at different global positions, but A's own
   subsequence is the same. *)
let profile_order = [ `A; `B; `A; `B; `B; `A; `B; `A; `A ]
let long_order = [ `B; `B; `A; `A; `B; `A; `B; `A; `B; `A ]

let place_count trace plan =
  let outcome =
    Replay.trace
      ~policy:(fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification)
      trace
  in
  outcome.metrics.region_objects

let hot_captured trace plan =
  (* Count placements that landed on genuinely hot objects of this run. *)
  let stats = Prefix_trace.Trace_stats.analyze trace in
  let hot = Prefix_trace.Trace_stats.hot_objects stats in
  let hot_set = Hashtbl.create 8 in
  List.iter (fun (o : Prefix_trace.Trace_stats.obj_info) -> Hashtbl.replace hot_set o.obj ()) hot;
  let cls = { Policy.is_hot = Hashtbl.mem hot_set; is_hds = (fun _ -> false) } in
  let outcome =
    Replay.trace ~policy:(fun heap -> Prefix_policy.policy costs heap plan cls) trace
  in
  outcome.metrics.region_hot_objects

let test_hybrid_plan_gates_counter () =
  let prof = server_trace ~interleave:profile_order () in
  let plan = Pipeline.plan ~config:hybrid_config ~variant:Plan.Hot prof in
  let gated =
    List.filter (fun (cp : Plan.counter_plan) -> cp.required_ctx = Some 100) plan.counters
  in
  Alcotest.(check int) "one gated counter" 1 (List.length gated);
  (* Within path A the hot objects are simply the first three. *)
  match (List.hd gated).pattern with
  | Context.Fixed [ 1; 2; 3 ] | Context.All _ -> ()
  | p -> Alcotest.failf "unexpected gated pattern %s" (Format.asprintf "%a" Context.pp p)

let test_plain_ids_unstable_across_interleavings () =
  (* Without the gate, the profiled hot instance ids pick up B-path
     allocations on the evaluation input. *)
  let prof = server_trace ~interleave:profile_order () in
  let long = server_trace ~interleave:long_order () in
  let plain_plan = Pipeline.plan ~variant:Plan.Hot prof in
  let hybrid_plan = Pipeline.plan ~config:hybrid_config ~variant:Plan.Hot prof in
  let plain_hot = hot_captured long plain_plan in
  let hybrid_hot = hot_captured long hybrid_plan in
  Alcotest.(check int) "hybrid captures all three hot objects" 3 hybrid_hot;
  Alcotest.(check bool)
    (Printf.sprintf "plain ids misfire under reordering (%d vs %d)" plain_hot hybrid_hot)
    true
    (plain_hot < hybrid_hot)

let test_hybrid_gate_runtime_semantics () =
  (* Manual plan: counter gated on ctx 100, hot id {1}. *)
  let heap = Allocator.create () in
  let plan =
    { Plan.variant = Plan.Hot;
      slots = [ { Prefix_core.Offsets.offset = 0; size = 64 } ];
      region_bytes = 64;
      site_counter = [ (1, 0) ];
      counters =
        [ { Plan.counter = 0;
            counter_sites = [ 1 ];
            pattern = Context.Fixed [ 1 ];
            placements = [ (1, 0) ];
            recycle = None;
            required_ctx = Some 100 } ];
      placed_objects = [];
      profile =
        { hot_count = 0; hds_count = 0; heap_access_share = 0.; ohds_count = 0; rhds_count = 0 }
    }
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  (* A wrong-context allocation must not consume instance id 1. *)
  let a1 = p.alloc ~obj:1 ~site:1 ~ctx:200 ~size:32 in
  Alcotest.(check bool) "wrong ctx goes to heap" false (Arena.contains arena a1);
  let a2 = p.alloc ~obj:2 ~site:1 ~ctx:100 ~size:32 in
  Alcotest.(check int) "first gated allocation is placed" (Arena.slot_addr arena 0) a2;
  p.finish ()

let test_hybrid_off_by_default () =
  let prof = server_trace ~interleave:profile_order () in
  let plan = Pipeline.plan ~variant:Plan.Hot prof in
  Alcotest.(check bool) "no gates without opt-in" true
    (List.for_all (fun (cp : Plan.counter_plan) -> cp.required_ctx = None) plan.counters)

let test_hybrid_no_gate_for_single_ctx_site () =
  (* If all of a site's allocations share one ctx, gating buys nothing
     and must not be applied. *)
  let b = B.create ~seed:10 () in
  let hot = List.init 3 (fun _ -> B.alloc b ~site:1 ~ctx:5 32) in
  for _ = 1 to 100 do
    List.iter (fun o -> B.access b o 0) hot
  done;
  let plan = Pipeline.plan ~config:hybrid_config ~variant:Plan.Hot (B.trace b) in
  Alcotest.(check bool) "no gate" true
    (List.for_all (fun (cp : Plan.counter_plan) -> cp.required_ctx = None) plan.counters)

let suite =
  [ ( "hybrid-context",
      [ Alcotest.test_case "plan gates counter" `Quick test_hybrid_plan_gates_counter;
        Alcotest.test_case "plain ids unstable, hybrid stable" `Quick
          test_plain_ids_unstable_across_interleavings;
        Alcotest.test_case "runtime gate semantics" `Quick test_hybrid_gate_runtime_semantics;
        Alcotest.test_case "off by default" `Quick test_hybrid_off_by_default;
        Alcotest.test_case "no gate for single-ctx site" `Quick
          test_hybrid_no_gate_for_single_ctx_site ] ) ]
