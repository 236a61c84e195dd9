(* One model job of a benchmark workload, in a process of its own:

     bench.exe --workload W [--model M] --seed S --mode setup|timed|traced --dir D

   The model defaults to the workload's first.  [setup] stops right
   before the first timed call and lists the workload's models; [timed]
   runs the job through the program's entry point and, with --oracle,
   checks its report afterwards; [traced] runs the same job layer by
   layer under spans.  Each mode prints one JSON object on its last line
   of standard output; run.py aggregates them. *)

module Metrics = Prefix_runtime.Metrics

type json =
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec emit buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f when Float.is_finite f -> Printf.bprintf buf "%.17g" f
  | Num _ -> Buffer.add_string buf "null"
  | Str s -> Printf.bprintf buf "%S" s
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      l;
    Buffer.add_char buf ']'
  | Obj l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Printf.bprintf buf "%S:" k;
        emit buf v)
      l;
    Buffer.add_char buf '}'

let print json =
  let buf = Buffer.create 4096 in
  emit buf json;
  print_endline (Buffer.contents buf)

let timed (env : Setup.env) ~oracle ~perturb ~reports =
  let check r =
    Option.iter
      (fun dir ->
        Prefix_util.Fsio.atomic_write_string ~fsync:false
          (Filename.concat dir (env.wl.name ^ ".txt"))
          (Prefix_experiments.Durable.render r))
      reports;
    if oracle then Timed.oracle ~perturb r else Ok ()
  in
  let j = Timed.run env ~check in
  let error, outputs =
    match j.outputs with
    | Error e -> (e, [])
    | Ok o ->
      ( o.error,
        [ ("digest", Str o.digest); ("events", Int o.events); ("paper_gap_pp", Num o.gap) ] )
  in
  [ ("error", Str error);
    ("wall_s", Num j.wall_s);
    ("cpu_s", Num j.cpu_s);
    ("peak_rss_mb", Num j.peak_rss_mb);
    ("eval_passes", Int j.eval_passes);
    ("checkpoints", Int j.checkpoints) ]
  @ outputs

(* Per-layer figures of the job, all additive over a workload's jobs
   except [gc.top_heap_mb] (a maximum); run.py derives the ratios. *)
let layers (j : Traced.job) (m : Traced.measured) spans =
  let selfs = Spans.self spans in
  let sum f name =
    List.fold_left
      (fun acc ((s : Spans.t), self_s, self_w) ->
        if s.name = name then acc +. f self_s self_w else acc)
      0. selfs
  in
  let secs = sum (fun s _ -> s) in
  (* The runtime's word counters are floats and need not be whole. *)
  let words name = Float.round (sum (fun _ w -> w) name) in
  let total f = List.fold_left (fun acc (m : Metrics.t) -> acc + f m) 0 m.outcomes in
  let replays =
    List.map (fun l -> ("runtime.replay_s." ^ l, secs (Traced.replay_span l))) Setup.policy_labels
  in
  let replay_words =
    List.fold_left (fun acc l -> acc +. words (Traced.replay_span l)) 0. Setup.policy_labels
  in
  [ ("workloads.generate_s", Num (secs "workloads.generate"));
    ("workloads.generate_words", Num (words "workloads.generate"));
    ("workloads.events", Int m.events);
    ("trace.pack_s", Num (secs "trace.pack"));
    ("trace.pack_words", Num (words "trace.pack"));
    ("trace.analyze_s", Num (secs "trace.analyze"));
    ("trace.analyze_words", Num (words "trace.analyze"));
    ("trace.encode_s", Num (secs "trace.encode"));
    ("trace.decode_s", Num (secs "trace.decode"));
    ("trace.decode_words", Num (words "trace.decode"));
    ("trace.decode_wait_s", Num (secs "trace.decode_wait"));
    ("trace.container_bytes", Int m.container_bytes);
    ("hds.classify_s", Num (secs "hds.classify"));
    ("hds.classify_words", Num (words "hds.classify"));
    ("hds.detect_s", Num (secs "hds.detect"));
    ("hds.detect_words", Num (words "hds.detect"));
    ("hds.plan_s", Num (secs "hds.plan"));
    ("core.plan_s", Num (secs "core.plan"));
    ("core.plan_words", Num (words "core.plan"));
    ("halo.plan_s", Num (secs "halo.plan"));
    ("halo.plan_words", Num (words "halo.plan"));
    ("blockpolicy.plan_s", Num (secs "blockpolicy.plan"));
    ("runtime.replay_s", Num (List.fold_left (fun acc (_, s) -> acc +. s) 0. replays));
    ("runtime.replay_words", Num replay_words) ]
  @ List.map (fun (k, s) -> (k, Num s)) replays
  @ [ ("runtime.snapshot_s", Num (secs "runtime.snapshot"));
      ("runtime.snapshot_bytes", Int !Traced.snapshot_bytes);
      ("runtime.checkpoint_save_s", Num (secs "runtime.checkpoint_save"));
      ("runtime.checkpoints", Int j.checkpoints);
      ("cachesim.mem_refs", Int (total (fun m -> m.counters.refs)));
      ("cachesim.l1_misses", Int (total (fun m -> m.counters.l1_misses)));
      ("cachesim.llc_misses", Int (total (fun m -> m.counters.llc_misses)));
      ("cachesim.l2_tlb_misses", Int (total (fun m -> m.counters.l2_tlb_misses)));
      ("heap.peak_bytes", Int (total (fun m -> m.peak_bytes)));
      ("obs.export_s", Num (secs "obs.export"));
      ("obs.samples", Int j.obs_samples);
      ("gc.top_heap_mb", Num j.gc_top_heap_mb);
      ("gc.major_collections", Int j.gc_major_collections) ]

let traced (env : Setup.env) =
  let j = Traced.run env in
  let spans = Spans.all () in
  Spans.write_json (Filename.concat env.dir "spans.json") spans;
  match (j.measured, List.find_opt (fun (s : Spans.t) -> s.name = "job") spans) with
  | Error e, _ -> [ ("error", Str e) ]
  | Ok _, None -> [ ("error", Str "no job span") ]
  | Ok m, Some job ->
    (* Time of the job inside its layer spans. *)
    let covered =
      List.fold_left
        (fun acc (c : Spans.t) -> if c.parent = job.id then acc +. Spans.seconds c else acc)
        0. spans
    in
    let layers =
      layers j m spans @ [ ("experiments.unattributed_s", Num (Spans.seconds job -. covered)) ]
    in
    [ ("error", Str "");
      ("digest", Str (Timed.digest m.outcomes));
      ("job_wall_s", Num (Spans.seconds job));
      ("coverage", Num (covered /. Spans.seconds job));
      ("layers", Obj layers) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME [--model NAME] --seed N --mode setup|timed|traced \
     --dir DIR [--oracle] [--perturb-oracle] [--reports DIR]";
  exit 2

let () =
  let workload = ref "" and model = ref "" and seed = ref None and mode = ref "" in
  let dir = ref "" and oracle = ref false and perturb = ref false and reports = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--model" :: v :: rest -> model := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--mode" :: v :: rest -> mode := v; parse rest
    | "--dir" :: v :: rest -> dir := v; parse rest
    | "--oracle" :: rest -> oracle := true; parse rest
    | "--perturb-oracle" :: rest -> perturb := true; parse rest
    | "--reports" :: v :: rest -> reports := Some v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Setup.find !workload, !seed) with
  | Some w, Some seed when (!model = "" || List.mem !model w.models) && !dir <> "" ->
    let model = if !model = "" then List.hd w.models else !model in
    let env = Setup.setup w ~model ~seed ~dir:!dir in
    let ready_ns = Prefix_obs.Clock.now_ns () in
    let fields =
      match !mode with
      | "setup" -> [ ("models", Arr (List.map (fun m -> Str m) w.models)) ]
      | "timed" ->
        timed env ~oracle:(!oracle || !perturb) ~perturb:!perturb ~reports:!reports
      | "traced" -> traced env
      | _ -> usage ()
    in
    print (Obj (("model", Str model) :: ("ready_ns", Str (Int64.to_string ready_ns)) :: fields));
    exit 0
  | _ -> usage ()
