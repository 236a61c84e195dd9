(* Crash-recovery campaign: prove kill-then-resume is lossless.

   For each case (a benchmark list and a domain count) the parent first
   runs the full durable benchmark in a forked child to get the clean
   reference report, then runs a chain of children over one shared
   checkpoint directory, each child rigged — via the
   {!Prefix_runtime.Checkpoint} after-save hook — to SIGKILL itself
   after its k-th checkpoint write (k drawn from a seeded RNG).  Between
   children the parent sometimes tears the newest checkpoint file
   (truncation or a byte flip), exercising the CRC + .prev fallback.
   When a child finally completes, its report must be byte-identical to
   the clean reference.

   The parent stays single-domain throughout (it only forks and waits);
   every durable run — including the clean reference — happens in a
   child, so forking never races a running domain.  Children with
   jobs=2 replay two benchmarks on two domains, putting kill points
   inside concurrent checkpoint writers.

   Every kill lands on a checkpoint-write boundary by construction, and
   each child performs at least one save before dying (saves only
   happen after new progress), so the chain terminates. *)

module Checkpoint = Prefix_runtime.Checkpoint
module Durable = Prefix_experiments.Durable
module Workload = Prefix_workloads.Workload
module Fsio = Prefix_util.Fsio

type config = {
  benches : string list;
  dir : string;  (* campaign root; one subdirectory per case instance *)
  seed : int;
  target_kills : int;  (* keep cycling cases until this many kills *)
  scale : Workload.scale;  (* evaluation scale of the durable runs *)
  segment_events : int;
  every : int;  (* checkpoint every N segments *)
}

let default_config ~dir =
  { benches = [ "libc"; "swissmap" ];
    dir;
    seed = 42;
    target_kills = 20;
    scale = Workload.Profiling;
    segment_events = 1024;
    every = 1 }

type case = { c_benches : string list; c_jobs : int }

type summary = {
  s_cases : int;  (* case instances driven to completion *)
  s_kills : int;
  s_torn : int;  (* torn-checkpoint injections *)
  s_resumes : int;  (* children that resumed an interrupted run *)
  s_divergences : (string * string) list;  (* case dir, detail *)
  s_failures : (string * string) list;  (* case dir, detail *)
}

let ok s = s.s_divergences = [] && s.s_failures = [] && s.s_cases > 0

(* ---- child side ----------------------------------------------------- *)

let ( // ) = Filename.concat

let durable_cfg cfg ~dir ~jobs =
  { Durable.dir;
    every = cfg.every;
    (* Unthrottled: the campaign wants a kill point at every boundary. *)
    throttle_ms = 0.;
    guardrails = Checkpoint.no_guardrails;
    jobs;
    scale = cfg.scale;
    streaming = true;
    segment_events = Some cfg.segment_events }

(* Run the case's benchmarks durably and leave the concatenated report
   (plus a distinguishable error file on failure) in [dir].  Runs in a
   forked child: exits via [Unix._exit] so the parent's buffers and
   at_exit handlers never run twice. *)
let child_main cfg ~dir ~jobs ~kill_after () =
  (match kill_after with
  | Some k ->
    Checkpoint.reset_saves ();
    Checkpoint.set_after_save (fun n ->
        if n >= k then Unix.kill (Unix.getpid ()) Sys.sigkill)
  | None -> ());
  match
    let results = Durable.run_many (durable_cfg cfg ~dir ~jobs) cfg.benches in
    String.concat "" (List.map Durable.render results)
  with
  | report ->
    Fsio.atomic_write_string (dir // "report") report;
    Unix._exit 0
  | exception e ->
    (try Fsio.atomic_write_string (dir // "error") (Printexc.to_string e)
     with _ -> ());
    Unix._exit 4

let fork_child cfg ~dir ~jobs ~kill_after =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* Keep child noise (logs, alcotest-style output) out of the
       campaign's own report. *)
    (try
       let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 devnull Unix.stdout;
       Unix.dup2 devnull Unix.stderr;
       Unix.close devnull
     with Unix.Unix_error _ -> ());
    child_main cfg ~dir ~jobs ~kill_after ()
  | pid ->
    let _, status = Unix.waitpid [] pid in
    status

(* ---- torn-write injection ------------------------------------------- *)

let checkpoint_files dir =
  let acc = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun e ->
          let p = d // e in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix e ".ckpt" then acc := p :: !acc)
        entries
  in
  walk dir;
  List.sort compare !acc

(* Deliberately non-atomic corruption of one checkpoint file, as a
   crash mid-write would leave it.  The .prev rotation must absorb
   this. *)
let tear_one rng dir =
  match checkpoint_files dir with
  | [] -> false
  | files ->
    let path = List.nth files (Random.State.int rng (List.length files)) in
    (match Fsio.read_file path with
    | Error _ -> false
    | Ok data ->
      let n = String.length data in
      if n = 0 then false
      else begin
        let data' =
          if Random.State.bool rng then
            (* torn tail: keep a prefix *)
            String.sub data 0 (Random.State.int rng n)
          else begin
            (* bit flip somewhere in the body *)
            let b = Bytes.of_string data in
            let i = Random.State.int rng n in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
            Bytes.to_string b
          end
        in
        let oc = open_out_bin path in
        output_string oc data';
        close_out oc;
        true
      end)

(* ---- parent side ---------------------------------------------------- *)

let max_children_per_case = 500

let run ?(progress = fun _ -> ()) cfg =
  if cfg.benches = [] then invalid_arg "Crash.run: no benchmarks";
  List.iter
    (fun b -> ignore (Prefix_workloads.Registry.find b))
    cfg.benches;
  Fsio.mkdir_p cfg.dir;
  (* jobs=1 exercises each benchmark alone; jobs=2 pairs them so kill
     points land inside concurrent checkpoint writers. *)
  let cases =
    List.map (fun b -> { c_benches = [ b ]; c_jobs = 1 }) cfg.benches
    @
    match cfg.benches with
    | _ :: _ :: _ -> [ { c_benches = cfg.benches; c_jobs = 2 } ]
    | _ -> []
  in
  let kills = ref 0 and torn = ref 0 and resumes = ref 0 in
  let divergences = ref [] and failures = ref [] in
  let cases_done = ref 0 in
  let cycle = ref 0 in
  while
    !kills < cfg.target_kills
    && !divergences = [] && !failures = []
    && !cycle < 200
  do
    List.iteri
      (fun i case ->
        if !kills < cfg.target_kills && !divergences = [] && !failures = []
        then begin
          let tag = Printf.sprintf "case-%d-%d" !cycle i in
          let dir = cfg.dir // tag in
          let clean_dir = cfg.dir // (tag ^ "-clean") in
          let case_cfg = { cfg with benches = case.c_benches } in
          let rng =
            Random.State.make [| cfg.seed; !cycle; i; 0x5eed |]
          in
          progress
            (Printf.sprintf "%s: %s, jobs %d" tag
               (String.concat "+" case.c_benches)
               case.c_jobs);
          (* Clean reference, uninterrupted (also forked: the parent
             must stay single-domain). *)
          (match
             fork_child case_cfg ~dir:clean_dir ~jobs:case.c_jobs
               ~kill_after:None
           with
          | Unix.WEXITED 0 -> ()
          | status ->
            let detail =
              match status with
              | Unix.WEXITED n ->
                Printf.sprintf "clean run exited %d%s" n
                  (match Fsio.read_file (clean_dir // "error") with
                  | Ok e -> ": " ^ e
                  | Error _ -> "")
              | Unix.WSIGNALED s ->
                Printf.sprintf "clean run killed by signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "clean run stopped %d" s
            in
            failures := (tag, detail) :: !failures);
          (* Kill chain over one shared checkpoint directory. *)
          let attempts = ref 0 in
          let completed = ref false in
          while
            (not !completed) && !failures = [] && !attempts < max_children_per_case
          do
            incr attempts;
            if !attempts > 1 then incr resumes;
            (* Later attempts get a wider kill window so the chain
               outruns torn-write rollbacks. *)
            let kill_after = 1 + Random.State.int rng (2 + (!attempts / 3)) in
            match
              fork_child case_cfg ~dir ~jobs:case.c_jobs
                ~kill_after:(Some kill_after)
            with
            | Unix.WSIGNALED s when s = Sys.sigkill ->
              incr kills;
              (* Occasionally also tear the newest on-disk state, as a
                 crash mid-write would. *)
              if Random.State.int rng 5 = 0 && tear_one rng dir then incr torn
            | Unix.WEXITED 0 -> completed := true
            | Unix.WEXITED n ->
              failures :=
                ( tag,
                  Printf.sprintf "child exited %d after %d kills%s" n !kills
                    (match Fsio.read_file (dir // "error") with
                    | Ok e -> ": " ^ e
                    | Error _ -> "") )
                :: !failures
            | Unix.WSIGNALED s ->
              failures :=
                (tag, Printf.sprintf "child killed by unexpected signal %d" s)
                :: !failures
            | Unix.WSTOPPED s ->
              failures := (tag, Printf.sprintf "child stopped %d" s) :: !failures
          done;
          if (not !completed) && !failures = [] then
            failures :=
              ( tag,
                Printf.sprintf "no completion after %d children"
                  max_children_per_case )
              :: !failures;
          if !failures = [] then begin
            match
              (Fsio.read_file (dir // "report"), Fsio.read_file (clean_dir // "report"))
            with
            | Ok got, Ok want when got = want -> incr cases_done
            | Ok got, Ok want ->
              divergences :=
                ( tag,
                  Printf.sprintf
                    "resumed report diverges from clean run (%d vs %d bytes)"
                    (String.length got) (String.length want) )
                :: !divergences
            | Error e, _ | _, Error e ->
              failures := (tag, "missing report: " ^ e) :: !failures
          end;
          progress
            (Printf.sprintf "%s: %d kills total, %d torn, %s" tag !kills !torn
               (if !failures = [] && !divergences = [] then "ok" else "FAILED"))
        end)
      cases;
    incr cycle
  done;
  { s_cases = !cases_done;
    s_kills = !kills;
    s_torn = !torn;
    s_resumes = !resumes;
    s_divergences = List.rev !divergences;
    s_failures = List.rev !failures }

let report s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "crash campaign: %d cases completed, %d kills, %d resumes, %d torn \
        checkpoints\n"
       s.s_cases s.s_kills s.s_resumes s.s_torn);
  List.iter
    (fun (tag, d) -> Buffer.add_string buf (Printf.sprintf "DIVERGENCE %s: %s\n" tag d))
    s.s_divergences;
  List.iter
    (fun (tag, d) -> Buffer.add_string buf (Printf.sprintf "FAILURE %s: %s\n" tag d))
    s.s_failures;
  Buffer.add_string buf
    (if ok s then "crash campaign: all resumed reports byte-identical\n"
     else "crash campaign: FAILED\n");
  Buffer.contents buf
