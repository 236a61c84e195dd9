(* The benchmark's workloads and the set-up a model job's process
   performs before its first timed call: the harness setters the CLI
   would apply, the seeded model, and a working directory. *)

module Harness = Prefix_experiments.Harness
module Durable = Prefix_experiments.Durable
module Workload = Prefix_workloads.Workload
module Checkpoint = Prefix_runtime.Checkpoint
module Policy = Prefix_runtime.Policy

type kind =
  | Materialized  (** [prefix run <m>] *)
  | Fanout
      (** [prefix run <m> --stream --stream-container columnar
          --decode-once] *)
  | Checkpointed
      (** [prefix run <m> --stream --checkpoint D --checkpoint-every 1
          --telemetry F.om], but with no wall-clock throttle on saves *)

(* Every workload runs at one domain: on a shared 2-core host the
   two-domain (prefetch) runs spread too widely to be a benchmark. *)
type workload = {
  name : string;
  models : string list;
  scale : Workload.scale;
  kind : kind;
}

let workloads =
  [ { name = "table3-long";
      models = Prefix_workloads.Registry.names;
      scale = Workload.Long;
      kind = Materialized };
    { name = "stream-huge";
      models = [ "mysql"; "roms" ];
      scale = Workload.Huge;
      kind = Fanout };
    { name = "durable-huge";
      models = [ "mcf" ];
      scale = Workload.Huge;
      kind = Checkpointed } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type env = {
  w : workload;
  dir : string;  (** working directory: spool files, checkpoints, outputs *)
  wl : Workload.t;  (** seeded copy of the job's model *)
}

let setup w ~model ~seed ~dir =
  Harness.set_eval_scale w.scale;
  (match w.kind with
  | Materialized -> ()
  | Fanout ->
    Harness.set_streaming true;
    Harness.set_stream_container `Columnar;
    Harness.set_decode_once true
  | Checkpointed -> Harness.set_streaming true);
  Prefix_util.Fsio.mkdir_p dir;
  { w; dir; wl = Seeded.make ~seed (Prefix_workloads.Registry.find model) }

(* Position of the job's model in its workload: the job's span id. *)
let job_index env =
  let rec find i = function
    | [] -> -1
    | m :: rest -> if m = env.wl.name then i else find (i + 1) rest
  in
  find 0 env.w.models

(* Durable runs save at every segment with no wall-clock throttle, as
   the crash campaign does, so the number of saves is a pure function
   of the inputs. *)
let durable_config env =
  { Durable.dir = Filename.concat env.dir "checkpoints";
    every = 1;
    throttle_ms = 0.;
    guardrails = Checkpoint.no_guardrails;
    jobs = 1;
    scale = env.w.scale;
    streaming = true;
    segment_events = None }

let telemetry_path env = Filename.concat env.dir (env.wl.name ^ ".om")

(* The CLI's --telemetry default cadence. *)
let telemetry_interval = 65536

(* The seven policies of a report, in report order. *)
let policy_labels =
  [ "baseline"; "hds"; "halo"; "block"; "prefix_hot"; "prefix_hds"; "prefix_hdshot" ]

let policies ~hds_plan ~halo_plan ~block_plan ~prefix_plans cls =
  let costs = Harness.exec_config.costs in
  let prefix plan heap = Prefix_runtime.Prefix_policy.policy costs heap plan cls in
  List.combine policy_labels
    ([ (fun heap -> Policy.baseline costs heap);
       (fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls);
       (fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls);
       (fun heap -> Prefix_runtime.Block_policy.policy costs heap block_plan cls) ]
    @ List.map prefix prefix_plans)
