(* Benchmark harness.

   The paper reproduction regenerates every table and figure of the
   evaluation section (Tables 2-6, Figures 1, 2, 9-14) plus the
   ablations, printing measured values next to the paper's.  Run all
   with no arguments, or a subset with e.g.
     dune exec bench/main.exe -- table3 fig9
   `csv [DIR]` writes the tables as CSV files (default DIR: results).

   `overhead [--benches a,b] [--out FILE]` gates the two costs the
   simulator promises to keep under 3% of replay throughput (geomean
   over the benches, default all 13):

   - recorder: each bench's Long-scale trace replayed under the
     baseline policy with observability on, flight recorder off vs on;
   - checkpoint: chains of back-to-back replays through the
     segment-session path, checkpointing off vs on (full session
     snapshots at segment cadence, wall-clock throttled as in the
     durable runner).

   It prints one table per gate, writes both gates to
   BENCH_overhead.json (default FILE) under a provenance header, and
   exits 1 when either gate's geomean exceeds its budget.  Speed is
   measured by perfbench/, not here.

   `--jobs N` (anywhere on the command line) is the number of domains
   the paper reproduction spreads its benchmarks across; the default is
   the runtime's recommended domain count.  Reports are bit-identical
   for every N.  Any other argument is refused with exit 2. *)

module R = Prefix_experiments.Report
module Harness = Prefix_experiments.Harness
module Pool = Prefix_parallel.Pool
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Checkpoint = Prefix_runtime.Checkpoint
module Clock = Prefix_obs.Clock

let budget_pct = 3.0

(* One gate's measurement of one bench. *)
type row = {
  bench : string;
  events : int;  (* events per timed sample *)
  off_rate : float;  (* events/s of the fastest off sample *)
  on_rate : float;
  overhead : float;  (* median paired on/off time ratio, minus 1 *)
  saves : int option;  (* checkpoint saves over all on samples *)
}

(* Paired medians: after one warm-up of the off leg, each of [reps]
   samples times the off leg and then the on leg back to back and
   contributes one on/off ratio; the overhead is the median ratio.
   Pairing cancels slow drift, the median discards the noise spikes a
   shared machine throws at individual samples, and the per-leg
   minimum of the same samples gives the throughput figures.  [leg on]
   does any untimed set-up and returns the work to time. *)
let paired ~reps ~events leg =
  let time f =
    let t0 = Clock.now_ns () in
    f ();
    Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9
  in
  leg false ();
  let best_off = ref infinity and best_on = ref infinity in
  let ratios =
    Array.init reps (fun _ ->
        let d_off = time (leg false) in
        best_off := Float.min !best_off d_off;
        let d_on = time (leg true) in
        best_on := Float.min !best_on d_on;
        d_on /. d_off)
  in
  Array.sort compare ratios;
  let median =
    if reps land 1 = 1 then ratios.(reps / 2)
    else (ratios.((reps / 2) - 1) +. ratios.(reps / 2)) /. 2.
  in
  let rate t = if t > 0. then float_of_int events /. t else 0. in
  (median -. 1., rate !best_off, rate !best_on)

(* Long-scale traces: each timed replay runs ~10^2 ms, long enough that
   container noise stays small next to the work being gated. *)
let long_trace name =
  let wl = Prefix_workloads.Registry.find name in
  Packed.of_trace (wl.generate ~scale:Long ~seed:8 ())

let baseline heap = Policy.baseline Executor.default_config.costs heap

(* Both legs pay the same span/metric cost, so the delta isolates the
   recorder: one integer compare per event plus a registry snapshot
   every 2^16 events. *)
let recorder_reps = 8

let recorder_row name =
  let packed = long_trace name in
  let events = Packed.length packed in
  (* One segment: the replay loop runs straight off the packed arrays. *)
  let stream = Stream.of_packed ~segment_events:(max 1 events) packed in
  let replay () = ignore (Executor.run_stream_many ~policies:[ baseline ] stream) in
  Prefix_obs.Control.set true;
  let overhead, off_rate, on_rate =
    paired ~reps:recorder_reps ~events (fun on ->
        if on then Prefix_obs.Recorder.configure () else Prefix_obs.Recorder.disable ();
        replay)
  in
  Prefix_obs.Recorder.disable ();
  Prefix_obs.Control.set false;
  { bench = name; events; off_rate; on_rate; overhead; saves = None }

(* Several replays per timed sample, so each on sample spans several
   throttle windows, with the throttle clock carried across them; small
   segments give dense save opportunities, as a long run with
   --checkpoint-every would have, so the throttle and not the cadence
   bounds the cost. *)
let checkpoint_reps = 5
let chain = 10
let segment_events = 8192
let every = 4

let checkpoint_row ~dir name =
  let packed = long_trace name in
  let path = Filename.concat dir (name ^ ".ckpt") in
  let now_ms () = Int64.to_float (Clock.now_ns ()) /. 1e6 in
  let saves = ref 0 in
  let chain_run save () =
    let last_save = ref (now_ms ()) in
    for _ = 1 to chain do
      let st = List.hd (Executor.sessions_create [ baseline ]) in
      let segs = ref 0 in
      Stream.iter_segments (Stream.of_packed ~segment_events packed) (fun ~base seg ->
          Executor.replay_segment st ~base seg;
          incr segs;
          if
            save && !segs mod every = 0
            && now_ms () -. !last_save >= Checkpoint.default_throttle_ms
          then begin
            Checkpoint.save ~path
              { Checkpoint.kind = "session";
                meta = [ ("bench", name) ];
                event_index = Executor.session_events st }
              ~payload:(Executor.session_serialize st);
            incr saves;
            last_save := now_ms ()
          end);
      ignore (Executor.session_finish st)
    done
  in
  let events = chain * Packed.length packed in
  let overhead, off_rate, on_rate = paired ~reps:checkpoint_reps ~events chain_run in
  { bench = name; events; off_rate; on_rate; overhead; saves = Some !saves }

type gate = {
  name : string;
  params : string;  (* the gate's parameters, as JSON fields *)
  rows : row list;
  pct : float;  (* geomean overhead, negative overheads counted as zero *)
}

(* One gate over every bench: prints its table as the rows come in,
   then its geomean overhead. *)
let run_gate ~name ~params ~title ~benches measure =
  Printf.printf "=== %s ===\n%-10s %14s %14s %9s %7s\n%!" title "bench" "off ev/s"
    "on ev/s" "overhead" "saves";
  let rows =
    List.map
      (fun bench ->
        let r = measure bench in
        Printf.printf "%-10s %14.0f %14.0f %8.2f%% %7s\n%!" r.bench r.off_rate
          r.on_rate (100. *. r.overhead)
          (Option.fold ~none:"-" ~some:string_of_int r.saves);
        r)
      benches
  in
  let log_sum = List.fold_left (fun a r -> a +. log (1. +. Float.max 0. r.overhead)) 0. rows in
  let pct = 100. *. (exp (log_sum /. float_of_int (max 1 (List.length rows))) -. 1.) in
  Printf.printf "geomean %s overhead %.2f%% (budget %.1f%%)\n%!" name pct budget_pct;
  { name; params; rows; pct }

let run_overhead ~benches ~out =
  let recorder =
    run_gate ~name:"recorder"
      ~params:(Printf.sprintf "\"reps\": %d, \"policy\": \"baseline\"" recorder_reps)
      ~title:"flight-recorder overhead (Long scale, baseline policy)" ~benches recorder_row
  in
  let dir = Filename.temp_file "bench-ckpt" "" in
  Sys.remove dir;
  Prefix_util.Fsio.mkdir_p dir;
  let checkpoint =
    run_gate ~name:"checkpoint"
      ~params:
        (Printf.sprintf
           "\"reps\": %d, \"replays_per_sample\": %d, \"segment_events\": %d, \
            \"checkpoint_every_segments\": %d, \"throttle_ms\": %.0f"
           checkpoint_reps chain segment_events every Checkpoint.default_throttle_ms)
      ~title:
        (Printf.sprintf
           "checkpointing overhead (Long scale, baseline policy, %d-replay chains, \
            save cadence %d x %d events, throttle %.0fms)"
           chain every segment_events Checkpoint.default_throttle_ms)
      ~benches (checkpoint_row ~dir)
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  let gates = [ recorder; checkpoint ] in
  let gate_json g =
    Printf.sprintf
      "    { \"gate\": %S, %s, \"geomean_overhead_pct\": %.2f, \"budget_pct\": %.1f }"
      g.name g.params g.pct budget_pct
  in
  let row_json g r =
    Printf.sprintf
      "    { \"gate\": %S, \"bench\": %S, \"events\": %d, \"off_events_per_sec\": %.0f, \
       \"on_events_per_sec\": %.0f, \"overhead_pct\": %.2f%s }"
      g.name r.bench r.events r.off_rate r.on_rate (100. *. r.overhead)
      (Option.fold ~none:"" ~some:(Printf.sprintf ", \"saves\": %d") r.saves)
  in
  Prefix_util.Fsio.atomic_write_string out
    (Printf.sprintf
       "{\n  \"ocaml_version\": %S,\n  \"word_size\": %d,\n  \"scale\": \"long\",\n  \
        \"gates\": [\n%s ],\n  \"rows\": [\n%s ]\n}\n"
       Sys.ocaml_version Sys.word_size
       (String.concat ",\n" (List.map gate_json gates))
       (String.concat ",\n" (List.concat_map (fun g -> List.map (row_json g) g.rows) gates)));
  Printf.printf "wrote %s\n" out;
  let over = List.filter (fun g -> g.pct > budget_pct) gates in
  List.iter
    (fun g ->
      Printf.eprintf "bench: %s overhead %.2f%% exceeds %.1f%% budget\n" g.name g.pct
        budget_pct)
    over;
  if over <> [] then exit 1

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
  | "csv" :: rest ->
    let dir = match rest with [ d ] -> d | _ -> "results" in
    Prefix_experiments.Export.write_all dir
  | "overhead" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> run_overhead ~benches ~out
      | a :: _ ->
        Printf.eprintf "bench: overhead: unknown argument %S\n" a;
        exit 2
    in
    parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_overhead.json" rest
  | [] ->
    print_endline "=== PreFix paper reproduction: all tables and figures ===";
    (* Replay the 13 benchmarks across --jobs domains once; every experiment
       below then hits the memo cache. *)
    ignore (Harness.run_all ());
    print_string (R.run_all ());
    print_endline "=== done ==="
  | ids -> (
    match List.filter (fun id -> R.find id = None) ids with
    | [] -> List.iter (fun id -> print_string ((Option.get (R.find id)).run ())) ids
    | unknown ->
      Printf.eprintf "bench: unknown argument %s; available: %s\n"
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", "
           (List.map (fun (e : R.experiment) -> e.id) R.all @ [ "csv"; "overhead" ]));
      exit 2)
