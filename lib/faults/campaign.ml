module Trace = Prefix_trace.Trace
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Trace_stats = Prefix_trace.Trace_stats
module Sanitizer = Prefix_trace.Sanitizer
module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Hds_policy = Prefix_runtime.Hds_policy
module Halo_policy = Prefix_runtime.Halo_policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Tablefmt = Prefix_util.Tablefmt

type policy_id = Hds | Halo | Block | Prefix

let all_policies = [ Hds; Halo; Block; Prefix ]

let policy_name = function
  | Hds -> "HDS"
  | Halo -> "HALO"
  | Block -> "Block"
  | Prefix -> "PreFix"

let policy_of_name s =
  match List.find_opt (fun p -> String.lowercase_ascii (policy_name p) = String.lowercase_ascii s) all_policies with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown policy %S (one of: %s)" s
         (String.concat ", " (List.map policy_name all_policies)))

type config = {
  benches : string list;
  policies : policy_id list;
  kinds : Injector.kind list;
  seeds : int;  (** fault seeds 0 .. seeds-1 per combination *)
  rate : float;
  region_cap : int option;
      (** per-region byte cap for HDS/HALO in the lenient replay, to
          exercise exhaustion degradation *)
}

let default_config =
  { benches = Registry.names;
    policies = all_policies;
    kinds = Injector.all_kinds;
    seeds = 8;
    rate = 0.01;
    region_cap = None }

type run = {
  bench : string;
  policy : string;
  kind : Injector.kind;
  fault_seed : int;
  scan : Sanitizer.report;  (** sanitizer classification of the corrupted trace *)
  recovered : int;  (** lenient-executor recovery actions *)
  degraded : int;  (** policy degraded fallbacks (region exhaustion etc.) *)
  strict_rejected : bool;  (** [Sanitizer.check] refused the corrupted trace *)
  region_peak : int;  (** peak region bytes held during the lenient replay *)
  lenient_exn : string option;  (** exception escaping the lenient replay *)
  repaired_exn : string option;  (** exception escaping the strict replay of the repaired trace *)
  drift : float;  (** |mem_refs - clean| / clean *)
  drift_ok : bool;  (** corrupted replay never touches more memory than the clean one *)
}

type summary = { cfg : config; runs : run list }

let exceptions s =
  List.concat_map
    (fun r ->
      let tag which = function
        | Some e -> [ Printf.sprintf "%s/%s/%s/seed %d (%s): %s" r.bench r.policy
                        (Injector.kind_name r.kind) r.fault_seed which e ]
        | None -> []
      in
      tag "lenient" r.lenient_exn @ tag "repaired" r.repaired_exn)
    s.runs

let drift_violations s = List.filter (fun r -> not r.drift_ok) s.runs

let ok s = exceptions s = [] && drift_violations s = []

(* One benchmark's fixed context: trace, plans, per-policy clean replays. *)
type bench_ctx = {
  wl : Workload.t;
  trace : Trace.t;
  pols : (policy_id * (Policy.mode -> int option -> Prefix_heap.Allocator.t -> Policy.t)) list;
  clean_refs : (policy_id * int) list;
}

let profile_seed = 7

let bench_ctx ?(policies = all_policies) name =
  let wl = Registry.find name in
  let trace = wl.generate ~scale:Workload.Profiling ~seed:profile_seed () in
  let packed = Packed.of_trace trace in
  let stats = Trace_stats.analyze_packed packed in
  let costs = Executor.default_config.costs in
  let mk = function
    | Hds ->
      let plan = Hds_policy.plan_of_trace stats trace in
      fun mode cap heap -> Hds_policy.policy ~mode ?region_cap:cap costs heap plan Policy.no_classification
    | Halo ->
      let plan = Prefix_halo.Halo.plan_of_trace stats trace in
      fun mode cap heap -> Halo_policy.policy ~mode ?region_cap:cap costs heap plan Policy.no_classification
    | Block ->
      let plan = Prefix_runtime.Block_policy.plan_of_trace trace in
      fun mode cap heap ->
        Prefix_runtime.Block_policy.policy ~mode ?block_cap:cap costs heap plan
          Policy.no_classification
    | Prefix ->
      let plan = Pipeline.plan_with_stats ~variant:Plan.HdsHot stats trace in
      fun mode _cap heap -> Prefix_policy.policy ~mode costs heap plan Policy.no_classification
  in
  let pols = List.map (fun p -> (p, mk p)) policies in
  let clean =
    Executor.run_stream_many
      ~policies:(List.map (fun (_, mk) -> mk Policy.Strict None) pols)
      (Stream.of_packed packed)
  in
  let clean_refs =
    List.map2 (fun (p, _) (o : Executor.outcome) -> (p, o.metrics.mem_refs)) pols clean
  in
  { wl; trace; pols; clean_refs }

let one_run cfg ctx (pid, mk) kind fault_seed =
  let corrupted = Injector.inject kind ~seed:fault_seed ~rate:cfg.rate ctx.trace in
  let scan = Sanitizer.scan corrupted in
  Sanitizer.export_metrics scan;
  let strict_rejected = Result.is_error (Sanitizer.check corrupted) in
  (* Leg 1: the corrupted stream straight into a lenient replay —
     graceful degradation must make this crash-free. *)
  let lenient_exn, recovered, degraded, region_peak, refs =
    let p = ref None in
    let policy heap =
      let pol = mk Policy.Lenient cfg.region_cap heap in
      p := Some pol;
      pol
    in
    match
      Executor.run_stream_many ~mode:Policy.Lenient ~policies:[ policy ]
        (Stream.of_trace corrupted)
    with
    | [ o ] ->
      let degraded, region_peak =
        match !p with
        | Some pol ->
          (pol.Policy.stats.degraded_fallbacks, pol.Policy.stats.region_peak_bytes)
        | None -> (0, 0)
      in
      ( None,
        Executor.recovery_total o.recovery,
        degraded,
        region_peak,
        Some o.Executor.metrics.mem_refs )
    | _ -> assert false
    | exception e -> (Some (Printexc.to_string e), 0, 0, 0, None)
  in
  (* Leg 2: sanitize, then replay the repaired trace strictly — the
     repair must produce a trace the fail-fast path accepts. *)
  let repaired_exn =
    let repaired, _ = Sanitizer.sanitize corrupted in
    match
      Executor.run_stream_many ~policies:[ mk Policy.Strict None ] (Stream.of_trace repaired)
    with
    | _ -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let clean = List.assoc pid ctx.clean_refs in
  let drift, drift_ok =
    match refs with
    | Some r ->
      (float_of_int (abs (r - clean)) /. float_of_int (max 1 clean), r <= clean)
    | None -> (1., false)
  in
  let module Metric = Prefix_obs.Metric in
  Metric.incr (Metric.counter "campaign.runs");
  if lenient_exn <> None || repaired_exn <> None then
    Metric.incr (Metric.counter "campaign.exceptions");
  if not drift_ok then Metric.incr (Metric.counter "campaign.drift_violations");
  Prefix_obs.Recorder.poll
    ~label:(Printf.sprintf "fault:%s/%s/%s" ctx.wl.name (policy_name pid)
              (Injector.kind_name kind))
    ();
  { bench = ctx.wl.name;
    policy = policy_name pid;
    kind;
    fault_seed;
    scan;
    recovered;
    degraded;
    strict_rejected;
    region_peak;
    lenient_exn;
    repaired_exn;
    drift;
    drift_ok }

module Pool = Prefix_parallel.Pool

let run ?(jobs = 1) ?(progress = fun _ -> ()) cfg =
  (* Phase 1: per-benchmark contexts (trace, plans, clean replays) fan
     out across [jobs] domains; each is built once and then only read. *)
  let ctxs =
    Pool.map ~jobs
      (fun bench ->
        progress (Printf.sprintf "campaign: %s" bench);
        bench_ctx ~policies:cfg.policies bench)
      cfg.benches
  in
  (* Phase 2: the benches x policies x kinds x seeds grid, sharded one
     run per task.  The grid is laid out — and Pool.map merges — in
     exactly the nested-loop order of the sequential path, and each run
     derives all randomness from its own (kind, fault_seed) injector,
     so report text and verdicts are identical for any [jobs]. *)
  let grid =
    List.concat_map
      (fun ctx ->
        List.concat_map
          (fun pol ->
            List.concat_map
              (fun kind ->
                List.init cfg.seeds (fun fault_seed -> (ctx, pol, kind, fault_seed)))
              cfg.kinds)
          ctx.pols)
      ctxs
  in
  let runs =
    Pool.map ~jobs
      (fun (ctx, pol, kind, fault_seed) -> one_run cfg ctx pol kind fault_seed)
      grid
  in
  { cfg; runs }

(* ---- report ---- *)

let report s =
  let buf = Buffer.create 4096 in
  let tbl =
    Tablefmt.create
      ~headers:
        [ "fault"; "policy"; "runs"; "anomalies"; "leaks"; "rejected"; "recovered";
          "degraded"; "peak region B"; "max drift"; "exceptions" ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun pid ->
          let pname = policy_name pid in
          let rs =
            List.filter (fun r -> r.kind = kind && r.policy = pname) s.runs
          in
          if rs <> [] then begin
            let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
            let anomalies = sum (fun r -> Sanitizer.structural r.scan) in
            let leaks = sum (fun r -> Sanitizer.count r.scan Sanitizer.Leak) in
            let rejected = sum (fun r -> if r.strict_rejected then 1 else 0) in
            let recovered = sum (fun r -> r.recovered) in
            let degraded = sum (fun r -> r.degraded) in
            let exns =
              sum (fun r ->
                  (if r.lenient_exn <> None then 1 else 0)
                  + if r.repaired_exn <> None then 1 else 0)
            in
            let max_drift = List.fold_left (fun a r -> max a r.drift) 0. rs in
            (* Reported, not gated: a drop-free injection legitimately
               raises the corrupted run's region residency. *)
            let peak_region = List.fold_left (fun a r -> max a r.region_peak) 0 rs in
            Tablefmt.add_row tbl
              [ Injector.kind_name kind; pname; string_of_int (List.length rs);
                Tablefmt.fmt_int anomalies; Tablefmt.fmt_int leaks;
                string_of_int rejected; Tablefmt.fmt_int recovered;
                Tablefmt.fmt_int degraded; Tablefmt.fmt_int peak_region;
                Printf.sprintf "%.2f%%" (100. *. max_drift); string_of_int exns ]
          end)
        s.cfg.policies)
    s.cfg.kinds;
  Buffer.add_string buf (Tablefmt.render tbl);
  let n = List.length s.runs in
  let exns = exceptions s in
  let dv = drift_violations s in
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d campaign runs (%d benchmarks x %d policies x %d fault kinds x %d seeds)\n"
       n
       (List.length s.cfg.benches)
       (List.length s.cfg.policies)
       (List.length s.cfg.kinds)
       s.cfg.seeds);
  Buffer.add_string buf
    (Printf.sprintf "uncaught exceptions: %d%s\n" (List.length exns)
       (if exns = [] then " (lenient replay is crash-free; repaired traces replay strictly)"
        else ""));
  List.iter (fun e -> Buffer.add_string buf ("  " ^ e ^ "\n")) exns;
  Buffer.add_string buf
    (Printf.sprintf "metric-drift violations: %d%s\n" (List.length dv)
       (if dv = [] then " (corrupted replays stay within the clean run's footprint)"
        else ""));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %s/%s/%s/seed %d: drift %.2f%%\n" r.bench r.policy
           (Injector.kind_name r.kind) r.fault_seed (100. *. r.drift)))
    dv;
  Buffer.contents buf
