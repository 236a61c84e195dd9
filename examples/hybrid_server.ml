(* The hybrid approach of §2.2.2: object ids *and* calling context.

   The paper notes that on non-deterministic programs (large server
   applications) neither mechanism alone is enough: calling context is
   imprecise (many objects share a call stack), and dynamic instance ids
   assume the allocation interleaving of the training run.  This example
   builds a "server" whose one allocation site is reached from two call
   paths whose interleaving depends on request arrival order, shows the
   id-only plan misfiring on a differently-ordered run, and the hybrid
   plan staying precise.

   Run with:  dune exec examples/hybrid_server.exe *)

module B = Prefix_workloads.Builder
module Rng = Prefix_util.Rng
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy

let ctx_conn = 100 (* accept path: allocates the hot connection state *)
let ctx_log = 200 (* logging path: allocates cold records *)

(* [arrival_seed] shuffles how the two paths interleave — the
   non-determinism of a real server. *)
let server ~arrival_seed () =
  let b = B.create ~seed:3 () in
  let rng = Rng.create arrival_seed in
  let conns = ref [] in
  let n_conn = ref 0 in
  for _ = 1 to 30 do
    if Rng.int rng 3 = 0 && !n_conn < 4 then begin
      (* accept(): connection state, hot *)
      incr n_conn;
      conns := B.alloc b ~site:1 ~ctx:ctx_conn 48 :: !conns
    end
    else begin
      (* log(): record, written once *)
      let r = B.alloc b ~site:1 ~ctx:ctx_log 48 in
      B.access b r 0
    end
  done;
  (* Request processing hammers the connection state. *)
  for _ = 1 to 500 do
    List.iter (fun c -> B.access b c 0) (List.rev !conns)
  done;
  B.trace b

let capture_stats plan trace =
  let stats = Prefix_trace.Trace_stats.analyze trace in
  let hot = Prefix_trace.Trace_stats.hot_objects stats in
  let hot_set = Hashtbl.create 8 in
  List.iter
    (fun (o : Prefix_trace.Trace_stats.obj_info) -> Hashtbl.replace hot_set o.obj ())
    hot;
  let cls = { Policy.is_hot = Hashtbl.mem hot_set; is_hds = (fun _ -> false) } in
  match
    Executor.run_stream_many
      ~policies:
        [ (fun heap ->
            Prefix_runtime.Prefix_policy.policy Executor.default_config.costs heap plan cls) ]
      (Prefix_trace.Stream.of_trace trace)
  with
  | [ outcome ] -> (outcome.metrics.region_hot_objects, outcome.metrics.region_objects)
  | _ -> assert false

let () =
  let training = server ~arrival_seed:1 () in
  let production = server ~arrival_seed:42 () in

  let id_only = Pipeline.plan ~variant:Plan.Hot training in
  let hybrid =
    Pipeline.plan
      ~config:{ Pipeline.default_config with hybrid_context = true }
      ~variant:Plan.Hot training
  in
  List.iter
    (fun (cp : Plan.counter_plan) ->
      Format.printf "hybrid plan counter %d: pattern %a, gate ctx %s@." cp.counter
        Prefix_core.Context.pp cp.pattern
        (match cp.required_ctx with Some c -> string_of_int c | None -> "-"))
    hybrid.counters;

  let report label plan =
    let hot, all = capture_stats plan production in
    Printf.printf "%-22s placed %d objects, %d of them hot\n" label all hot
  in
  print_endline "--- production run with a different arrival order ---";
  report "object ids only:" id_only;
  report "ids + calling context:" hybrid;
  print_endline
    "(the id-only plan spends preallocated slots on whatever allocation\n\
    \ happens to carry the profiled instance number; the gated counter\n\
    \ numbers the accept path's allocations only, so the connection\n\
    \ state is captured regardless of the interleaving)"
