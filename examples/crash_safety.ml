(* Crash safety walkthrough: framed traces, lenient decode, and
   kill-then-resume durable runs.

   Three acts:
   1. Write a trace in the columnar (v3) container, flip one byte, and
      watch the strict reader reject it while the lenient reader
      recovers everything except the corrupted frame — reporting the
      exact event range that was lost.
   2. Hand the survivors to the sanitizer, which repairs the dangling
      frees/accesses the hole left behind into a strictly replayable
      trace.
   3. Run a benchmark durably (checkpointing at segment boundaries),
      "crash" it right after its third checkpoint write, resume from
      the directory, and check the resumed report is byte-identical to
      an uninterrupted run.

   Every act checks what it shows: the program exits 1 if one fails.

   Run with:  dune exec examples/crash_safety.exe *)

module Columnar = Prefix_trace.Columnar
module Packed = Prefix_trace.Packed
module Trace = Prefix_trace.Trace
module Sanitizer = Prefix_trace.Sanitizer
module Workload = Prefix_workloads.Workload
module Checkpoint = Prefix_runtime.Checkpoint
module Durable = Prefix_experiments.Durable
module Executor = Prefix_runtime.Executor

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "crash_safety: failed: %s\n" what
  end

let temp_dir name =
  let dir = Filename.temp_file name "" in
  Sys.remove dir;
  Prefix_util.Fsio.mkdir_p dir;
  dir

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let wl = Prefix_workloads.Registry.find "libc" in
  let trace = wl.generate ~scale:Workload.Profiling ~seed:7 () in
  let total = Trace.length trace in

  (* --- Act 1: one flipped byte in a framed trace ------------------- *)
  let data = Columnar.to_bytes ~frame_events:4096 (Packed.of_trace trace) in
  Printf.printf "columnar v3 encoding: %d events in %d bytes\n" total
    (Bytes.length data);
  let pos = Bytes.length data / 2 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x10));
  (match Columnar.read data with
  | Ok _ -> check "the strict reader rejects a flipped byte" false
  | Error e -> Printf.printf "strict reader: rejected (%s)\n" e);
  let survivors =
    match Columnar.read_lenient data with
    | Error e ->
      check ("the lenient reader recovers: " ^ e) false;
      Trace.of_list []
    | Ok l ->
      let recovered = Packed.length l.cl_packed in
      Printf.printf "lenient reader: %d/%d events recovered, %d frame(s) skipped\n"
        recovered total l.cl_frames_skipped;
      List.iter
        (fun (r : Prefix_trace.Binfmt.lost_range) ->
          Printf.printf "  lost events [%d, %d)\n" r.lost_from r.lost_to)
        l.cl_lost;
      check "one frame skipped" (l.cl_frames_skipped = 1);
      check "recovered + lost = total"
        (recovered + Columnar.lenient_events_lost l = total);
      Packed.to_trace l.cl_packed
  in

  (* --- Act 2: repair the hole -------------------------------------- *)
  let repaired, report = Sanitizer.sanitize survivors in
  Printf.printf
    "sanitizer: %d dropped, %d synthesized, %d rewritten -> strict replay: "
    report.dropped report.synthesized report.rewritten;
  let outcome = Executor.run_baseline repaired in
  Printf.printf "%.0f cycles, no exceptions\n"
    outcome.metrics.cycles.total_cycles;

  (* --- Act 3: kill a durable run, then resume it ------------------- *)
  let cfg dir =
    { (Durable.default ~dir) with
      every = 1;
      throttle_ms = 0.;
      scale = Workload.Profiling;
      streaming = true;
      segment_events = Some 1024 }
  in
  let clean_dir = temp_dir "prefix-clean" and dir = temp_dir "prefix-crash" in
  Fun.protect
    ~finally:(fun () ->
      Checkpoint.set_after_save (fun _ -> ());
      List.iter remove_tree [ clean_dir; dir ])
    (fun () ->
      let clean = Durable.render (Durable.run_benchmark (cfg clean_dir) wl) in
      let exception Crash in
      Checkpoint.set_after_save (fun n -> if n >= 3 then raise Crash);
      (match Durable.run_benchmark (cfg dir) wl with
      | _ -> check "the durable run crashes after checkpoint #3" false
      | exception Crash ->
        Printf.printf "durable run: crashed after checkpoint #3 in %s\n" dir);
      Checkpoint.set_after_save (fun _ -> ());
      let resumed = Durable.render (Durable.run_benchmark (cfg dir) wl) in
      Printf.printf "resumed run:\n%s" resumed;
      let same = String.equal clean resumed in
      Printf.printf "byte-identical to the uninterrupted run: %b\n" same;
      check "the resumed report is byte-identical" same);
  if !failures > 0 then exit 1
