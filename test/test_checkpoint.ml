(* Crash-safety tests: session snapshot/restore determinism, the
   checkpoint container (CRC, rotation, torn-write fallback), and
   durable benchmark runs resuming to byte-identical reports. *)

module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Metrics = Prefix_runtime.Metrics
module Workload = Prefix_workloads.Workload
module Stream = Prefix_trace.Stream
module Packed = Prefix_trace.Packed

let costs = Executor.default_config.costs

(* A small but representative workload trace: enough events for several
   segments, exercised under every policy family. *)
let eval_trace =
  lazy
    (let w = Prefix_workloads.Registry.find "libc" in
     w.generate ~scale:Workload.Profiling ~seed:7 ())

let policies () =
  let w = Prefix_workloads.Registry.find "libc" in
  let prof = w.generate ~scale:Workload.Profiling ~seed:7 () in
  let stats = Prefix_trace.Trace_stats.analyze prof in
  let plan =
    Prefix_core.Pipeline.plan_with_stats ~variant:Prefix_core.Plan.HdsHot stats prof
  in
  let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats prof in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats prof in
  [ ("baseline", fun heap -> Policy.baseline costs heap);
    ( "hds",
      fun heap ->
        Prefix_runtime.Hds_policy.policy costs heap hds_plan Policy.no_classification );
    ( "halo",
      fun heap ->
        Prefix_runtime.Halo_policy.policy costs heap halo_plan Policy.no_classification );
    ( "prefix",
      fun heap ->
        Prefix_runtime.Prefix_policy.policy costs heap plan Policy.no_classification ) ]

let run_clean policy stream =
  let heap = Prefix_heap.Allocator.create () in
  let p = policy heap in
  let st =
    Executor.session_create ~config:Executor.default_config ~mode:Policy.Strict
      ~heatmap_objs:None ~attribute:false ~heap ~p
  in
  Stream.iter_segments stream (fun ~base seg -> Executor.replay_segment st ~base seg);
  Executor.session_finish st

(* Replay up to segment [k], serialize + deserialize the session there,
   and finish on the restored copy. *)
let run_snapshotted policy stream ~snap_at =
  let heap = Prefix_heap.Allocator.create () in
  let p = policy heap in
  let st =
    ref
      (Executor.session_create ~config:Executor.default_config ~mode:Policy.Strict
         ~heatmap_objs:None ~attribute:false ~heap ~p)
  in
  let seg_idx = ref 0 in
  Stream.iter_segments stream (fun ~base seg ->
      Executor.replay_segment !st ~base seg;
      incr seg_idx;
      if !seg_idx = snap_at then begin
        let s = Executor.session_serialize !st in
        match Executor.session_deserialize s with
        | Ok st' -> st := st'
        | Error e -> Alcotest.fail e
      end);
  Executor.session_finish !st

let check_same_outcome name (a : Executor.outcome) (b : Executor.outcome) =
  Alcotest.(check bool)
    (name ^ ": identical metrics") true (a.metrics = b.metrics);
  Alcotest.(check bool)
    (name ^ ": identical recovery") true (a.recovery = b.recovery)

let test_session_snapshot_roundtrip () =
  let trace = Lazy.force eval_trace in
  let packed = Packed.of_trace trace in
  let segs = 1 + (Packed.length packed / 2048) in
  List.iter
    (fun (name, policy) ->
      let stream () = Stream.of_packed ~segment_events:2048 packed in
      let clean = run_clean policy (stream ()) in
      (* Snapshot at the first, a middle, and the last boundary. *)
      List.iter
        (fun snap_at ->
          let resumed = run_snapshotted policy (stream ()) ~snap_at in
          check_same_outcome (Printf.sprintf "%s@%d" name snap_at) clean resumed)
        [ 1; segs / 2; segs ])
    (policies ())

(* ---- checkpoint container ---- *)

module Checkpoint = Prefix_runtime.Checkpoint
module Fsio = Prefix_util.Fsio

let sample_header =
  { Checkpoint.kind = "session";
    meta = [ ("bench", "libc"); ("scale", "long"); ("seed", "1234") ];
    event_index = 987654 }

let test_container_roundtrip () =
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let data = Checkpoint.encode sample_header ~payload in
  match Checkpoint.decode data with
  | Error e -> Alcotest.fail e
  | Ok (h, p) ->
    Alcotest.(check string) "kind" sample_header.kind h.Checkpoint.kind;
    Alcotest.(check int) "event index" sample_header.event_index
      h.Checkpoint.event_index;
    Alcotest.(check (list (pair string string)))
      "meta" sample_header.meta h.Checkpoint.meta;
    Alcotest.(check string) "payload" payload p

let test_container_rejects_corruption () =
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let data = Checkpoint.encode sample_header ~payload in
  let n = String.length data in
  (* A flip anywhere — magic, header, payload — must be caught. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string data in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x04));
      match Checkpoint.decode (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted a flip at offset %d" pos)
    [ 0; 5; n / 2; n - 1 ];
  (* ... and so must any truncation. *)
  List.iter
    (fun keep ->
      match Checkpoint.decode (String.sub data 0 keep) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted truncation to %d bytes" keep)
    [ 0; 3; n / 2; n - 1 ]

let test_container_meta_check () =
  (match
     Checkpoint.check_meta sample_header ~kind:"session"
       ~meta:[ ("bench", "libc"); ("seed", "1234") ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (kind, meta) ->
      match Checkpoint.check_meta sample_header ~kind ~meta with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "accepted mismatched identity")
    [ ("stats", [ ("bench", "libc") ]);  (* wrong kind *)
      ("session", [ ("bench", "mcf") ]);  (* wrong value *)
      ("session", [ ("trace_digest", "d41d8") ]) (* missing key *) ]

let with_temp_dir f =
  let dir = Filename.temp_file "prefix_ckpt" "" in
  Sys.remove dir;
  Fsio.mkdir_p dir;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let test_save_rotation_and_torn_fallback () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "x.ckpt" in
  let header i = { sample_header with Checkpoint.event_index = i } in
  Checkpoint.save ~path (header 1) ~payload:"first";
  Checkpoint.save ~path (header 2) ~payload:"second";
  (* Intact: the current copy wins. *)
  (match Checkpoint.load ~path with
  | Ok (h, p, `Current) ->
    Alcotest.(check int) "current event" 2 h.Checkpoint.event_index;
    Alcotest.(check string) "current payload" "second" p
  | Ok (_, _, `Previous) -> Alcotest.fail "read .prev despite intact current"
  | Error e -> Alcotest.fail e);
  (* Tear the current copy mid-write: .prev must absorb it. *)
  let oc = open_out_bin path in
  output_string oc "PFXC\001torn";
  close_out oc;
  (match Checkpoint.validate ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validated a torn file");
  (match Checkpoint.load ~path with
  | Ok (h, p, `Previous) ->
    Alcotest.(check int) "prev event" 1 h.Checkpoint.event_index;
    Alcotest.(check string) "prev payload" "first" p
  | Ok (_, _, `Current) -> Alcotest.fail "read the torn current copy"
  | Error e -> Alcotest.fail e);
  (* Both copies torn: the loss is reported, not masked. *)
  let oc = open_out_bin (Checkpoint.prev_path path) in
  output_string oc "garbage";
  close_out oc;
  match Checkpoint.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded from two torn copies"

(* The u64 payload-length field has no CRC of its own.  A value near
   [max_int] once wrapped the bounds check, so [decode] raised from
   [String.sub] and [load] never reached the good [.prev] copy. *)
let test_payload_length_overflow () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "x.ckpt" in
  Checkpoint.save ~path sample_header ~payload:"good";
  Checkpoint.save ~path sample_header ~payload:"abc";
  let data = Bytes.of_string (Checkpoint.encode sample_header ~payload:"abc") in
  let field = Bytes.length data - 4 - 3 - 8 in
  let plen = max_int - 5 in
  for i = 0 to 7 do
    Bytes.set data (field + i) (Char.chr ((plen lsr (8 * i)) land 0xff))
  done;
  (match Checkpoint.decode (Bytes.to_string data) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a payload length past the end");
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  match Checkpoint.load ~path with
  | Ok (_, p, `Previous) -> Alcotest.(check string) "prev payload" "good" p
  | Ok (_, _, `Current) -> Alcotest.fail "read the corrupt current copy"
  | Error e -> Alcotest.fail e

(* A container around arbitrary header bytes, with both CRCs valid, so
   the header decoder itself is what must refuse them. *)
let container_with_header hbytes =
  let module Binfmt = Prefix_trace.Binfmt in
  let buf = Buffer.create 64 in
  (* magic and the current version byte *)
  Buffer.add_string buf (String.sub (Checkpoint.encode sample_header ~payload:"") 0 5);
  Binfmt.put_u32le buf (String.length hbytes);
  Buffer.add_string buf hbytes;
  Binfmt.put_u32le buf (Prefix_util.Crc32.string hbytes);
  Buffer.add_string buf (String.make 8 '\000');  (* empty payload *)
  Binfmt.put_u32le buf (Prefix_util.Crc32.string "");
  Buffer.contents buf

(* A manifest whose CRC-valid header is [Marshal.to_string 42 []]: while
   headers were marshaled, [resume] and [resume --check] unmarshaled it
   as a header record and died with SIGSEGV. *)
let forged_manifest = container_with_header (Marshal.to_string 42 [])

let test_forged_header () =
  Alcotest.(check int) "46-byte manifest" 46 (String.length forged_manifest);
  (match Checkpoint.decode forged_manifest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded a forged header");
  with_temp_dir @@ fun dir ->
  let bdir = Filename.concat dir "libc" in
  Fsio.mkdir_p bdir;
  let path = Filename.concat bdir "manifest" in
  Fsio.atomic_write_string path forged_manifest;
  (match Checkpoint.validate ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validated a forged header");
  let module Durable = Prefix_experiments.Durable in
  (match Durable.check ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume --check accepted a forged manifest");
  match Durable.resume ~dir ~every:1 ~guardrails:Checkpoint.no_guardrails with
  | _ -> Alcotest.fail "resumed from a forged manifest"
  | exception Failure _ -> ()

(* The header bytes of a real container. *)
let sample_header_bytes =
  let data = Checkpoint.encode sample_header ~payload:"" in
  let b i = Char.code data.[5 + i] in
  String.sub data 9 (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

(* Arbitrary bytes, and real headers with a few bytes overwritten (so
   lengths and counts take any value) then cut short or extended. *)
let header_bytes =
  let open QCheck.Gen in
  let edited =
    map3
      (fun edits cut tail ->
        let b = Bytes.of_string sample_header_bytes in
        List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) edits;
        String.sub (Bytes.to_string b) 0 (min cut (Bytes.length b)) ^ tail)
      (list_size (0 -- 4) (pair nat char))
      (0 -- 200)
      (frequency [ (3, return ""); (1, string_size (1 -- 8)) ])
  in
  QCheck.make ~print:(Printf.sprintf "%S") (oneof [ string_size (0 -- 64); edited ])

let prop_header_bytes_never_raise =
  QCheck.Test.make ~name:"CRC-valid header bytes never raise" ~count:2000 header_bytes
    (fun hbytes ->
      let data = container_with_header hbytes in
      match Checkpoint.decode data with
      | Error _ -> true
      (* An accepted header is canonical: it encodes back to its bytes. *)
      | Ok (h, _) -> Checkpoint.encode h ~payload:"" = data)

(* ---- durable runs: interruption, torn state, identity ---- *)

module Durable = Prefix_experiments.Durable
module Registry = Prefix_workloads.Registry

let durable_cfg ~dir =
  { Durable.dir;
    every = 1;
    throttle_ms = 0.;  (* checkpoint at full cadence: more kill points *)
    guardrails = Checkpoint.no_guardrails;
    jobs = 1;
    scale = Workload.Profiling;
    streaming = true;
    segment_events = Some 1024 }

exception Killed

(* Run [wl] durably but abort (in-process) right after the [k]-th
   checkpoint write, as a crash there would. *)
let run_killed cfg wl ~kill_after =
  Checkpoint.reset_saves ();
  Checkpoint.set_after_save (fun n -> if n >= kill_after then raise Killed);
  Fun.protect
    ~finally:(fun () ->
      Checkpoint.set_after_save (fun _ -> ());
      Checkpoint.reset_saves ())
    (fun () ->
      match Durable.run_benchmark cfg wl with
      | r -> Some (Durable.render r)  (* fewer saves than k: ran to the end *)
      | exception Killed -> None)

let test_durable_resume_after_every_kill_point () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl) in
  (* Re-running over the finished directory replays nothing and renders
     the same report. *)
  Alcotest.(check string) "finished dir is idempotent" clean
    (Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl));
  (* Kill after the 1st, 2nd, ... save until a run completes instead;
     every interrupted directory must resume to the clean report. *)
  let rec go kill_after =
    if kill_after > 500 then Alcotest.fail "durable run never completed"
    else
      with_temp_dir @@ fun dir ->
      let cfg = durable_cfg ~dir in
      match run_killed cfg wl ~kill_after with
      | Some report ->
        Alcotest.(check string) "uninterrupted report" clean report
      | None ->
        let resumed = Durable.render (Durable.run_benchmark cfg wl) in
        Alcotest.(check string)
          (Printf.sprintf "resume after kill at save %d" kill_after)
          clean resumed;
        go (kill_after + 1)
  in
  go 1

let test_durable_resume_with_torn_checkpoint () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl) in
  with_temp_dir @@ fun dir ->
  let cfg = durable_cfg ~dir in
  (match run_killed cfg wl ~kill_after:4 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected the run to be interrupted");
  (* Tear every rolling snapshot the kill left behind; resume must fall
     back to .prev (or restart the phase) and still converge. *)
  let bdir = Filename.concat dir wl.name in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ckpt" then begin
        let p = Filename.concat bdir f in
        let data =
          match Fsio.read_file p with Ok d -> d | Error e -> Alcotest.fail e
        in
        let oc = open_out_bin p in
        output_string oc (String.sub data 0 (String.length data / 2));
        close_out oc
      end)
    (Sys.readdir bdir);
  let resumed = Durable.render (Durable.run_benchmark cfg wl) in
  Alcotest.(check string) "resume over torn snapshots" clean resumed

(* The materialized (non-streamed) evaluation path checkpoints and
   resumes identically. *)
let test_durable_materialized_kill_resume () =
  let wl = Registry.find "libc" in
  let cfg ~dir = { (durable_cfg ~dir) with streaming = false } in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (cfg ~dir:clean_dir) wl) in
  List.iter
    (fun kill_after ->
      with_temp_dir @@ fun dir ->
      match run_killed (cfg ~dir) wl ~kill_after with
      | Some report -> Alcotest.(check string) "ran to the end" clean report
      | None ->
        let resumed = Durable.render (Durable.run_benchmark (cfg ~dir) wl) in
        Alcotest.(check string)
          (Printf.sprintf "materialized resume after save %d" kill_after)
          clean resumed)
    [ 2; 5; 9 ]

(* Killing a pooled (jobs=2) durable run mid-flight and resuming it
   must converge on the sequential run's reports, for both benchmarks. *)
let test_durable_jobs2_kill_resume () =
  let names = [ "libc"; "swissmap" ] in
  let cfg2 ~dir = { (durable_cfg ~dir) with jobs = 2 } in
  with_temp_dir @@ fun clean_dir ->
  let clean =
    String.concat ""
      (List.map Durable.render (Durable.run_many (cfg2 ~dir:clean_dir) names))
  in
  with_temp_dir @@ fun dir ->
  let cfg = cfg2 ~dir in
  Checkpoint.reset_saves ();
  Checkpoint.set_after_save (fun n -> if n >= 5 then raise Killed);
  (match Durable.run_many cfg names with
  | _ -> Alcotest.fail "expected the pooled run to be interrupted"
  | exception Killed -> ()
  | exception _ -> () (* a pool domain died mid-kill; same crash site *));
  Checkpoint.set_after_save (fun _ -> ());
  Checkpoint.reset_saves ();
  let resumed =
    String.concat "" (List.map Durable.render (Durable.run_many cfg names))
  in
  Alcotest.(check string) "pooled resume" clean resumed

(* [jobs] is recorded in the manifest but is not part of a run's
   identity: one benchmark replays identically at any [jobs], so a run
   interrupted under one finishes under another. *)
let test_durable_resume_under_other_jobs () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl) in
  List.iter
    (fun (before, after) ->
      with_temp_dir @@ fun dir ->
      let cfg = { (durable_cfg ~dir) with jobs = before } in
      (match run_killed cfg wl ~kill_after:3 with
      | None -> ()
      | Some _ -> Alcotest.fail "expected the run to be interrupted");
      Alcotest.(check string)
        (Printf.sprintf "interrupted at jobs %d, finished at jobs %d" before after)
        clean
        (Durable.render (Durable.run_benchmark { cfg with jobs = after } wl)))
    [ (1, 2); (2, 1) ]

let test_durable_refuses_foreign_directory () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun dir ->
  let cfg = durable_cfg ~dir in
  (match run_killed cfg wl ~kill_after:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected the run to be interrupted");
  (* Same directory, different run identity: refused loudly rather than
     silently blending two runs' state. *)
  let other = { cfg with segment_events = Some 2048 } in
  match Durable.run_benchmark other wl with
  | _ -> Alcotest.fail "resumed under a mismatched configuration"
  | exception Failure msg ->
    Alcotest.(check bool) "names the mismatch" true
      (String.length msg > 0)

(* One directory may hold benchmarks checkpointed under different
   settings; resume finishes each under its own manifest's. *)
let test_resume_mixed_configurations () =
  let streamed = durable_cfg and materialized ~dir = { (durable_cfg ~dir) with streaming = false } in
  let libc = Registry.find "libc" and mcf = Registry.find "mcf" in
  with_temp_dir @@ fun clean_dir ->
  let clean_libc = Durable.render (Durable.run_benchmark (streamed ~dir:clean_dir) libc) in
  let clean_mcf = Durable.render (Durable.run_benchmark (materialized ~dir:clean_dir) mcf) in
  with_temp_dir @@ fun dir ->
  ignore (Durable.run_benchmark (streamed ~dir) libc);
  (match run_killed (materialized ~dir) mcf ~kill_after:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected the mcf run to be interrupted");
  let names, results =
    Durable.resume ~dir ~every:1 ~guardrails:Checkpoint.no_guardrails
  in
  Alcotest.(check (list string)) "benchmarks" [ "libc"; "mcf" ] names;
  Alcotest.(check (list string)) "reports" [ clean_libc; clean_mcf ]
    (List.map Durable.render results)

(* A checkpointed run opens the spans of a plain run around the same
   phases, so its trace shows where the time went too. *)
let test_durable_records_run_spans () =
  let module Harness = Prefix_experiments.Harness in
  let module Span = Prefix_obs.Span in
  let wl = Registry.find "libc" in
  let span_names run =
    Span.reset ();
    ignore (run ());
    List.sort_uniq compare (List.map (fun (s : Span.completed) -> s.name) (Span.completed ()))
  in
  Prefix_obs.Control.set true;
  Harness.set_streaming true;
  Harness.set_eval_scale Workload.Profiling;
  Harness.set_segment_events (Some 1024);
  Fun.protect
    ~finally:(fun () ->
      Prefix_obs.Control.set false;
      Span.reset ();
      Harness.set_streaming false;
      Harness.set_eval_scale Workload.Long;
      Harness.set_segment_events None)
  @@ fun () ->
  let plain = span_names (fun () -> Harness.run_benchmark wl) in
  Alcotest.(check bool) "plain run has its replay span" true
    (List.mem "replay:fanout" plain);
  with_temp_dir @@ fun dir ->
  Alcotest.(check (list string)) "span names" plain
    (span_names (fun () -> Durable.run_benchmark (durable_cfg ~dir) wl))

(* A non-positive checkpoint interval is refused before any work. *)
let test_every_must_be_positive () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun dir ->
  let cfg = durable_cfg ~dir in
  let refused what f =
    match f () with
    | _ -> Alcotest.fail (what ^ " accepted every = 0")
    | exception Invalid_argument _ -> ()
  in
  refused "run_benchmark" (fun () -> Durable.run_benchmark { cfg with every = 0 } wl);
  Alcotest.(check bool) "nothing written" false
    (Sys.file_exists (Filename.concat dir wl.name));
  (match run_killed cfg wl ~kill_after:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected the run to be interrupted");
  refused "resume" (fun () ->
      Durable.resume ~dir ~every:0 ~guardrails:Checkpoint.no_guardrails)

let suite =
  [ ( "checkpoint",
      [ Alcotest.test_case "session snapshot roundtrips mid-replay" `Quick
          test_session_snapshot_roundtrip;
        Alcotest.test_case "container roundtrip" `Quick test_container_roundtrip;
        Alcotest.test_case "container rejects corruption" `Quick
          test_container_rejects_corruption;
        Alcotest.test_case "container identity check" `Quick test_container_meta_check;
        Alcotest.test_case "payload length overflow" `Quick test_payload_length_overflow;
        Alcotest.test_case "forged header" `Quick test_forged_header;
        QCheck_alcotest.to_alcotest prop_header_bytes_never_raise;
        Alcotest.test_case "save rotation and torn fallback" `Quick
          test_save_rotation_and_torn_fallback ] );
    ( "durable",
      [ Alcotest.test_case "resume after every kill point" `Slow
          test_durable_resume_after_every_kill_point;
        Alcotest.test_case "resume over torn checkpoints" `Quick
          test_durable_resume_with_torn_checkpoint;
        Alcotest.test_case "materialized kill/resume" `Quick
          test_durable_materialized_kill_resume;
        Alcotest.test_case "pooled (jobs=2) kill/resume" `Quick
          test_durable_jobs2_kill_resume;
        Alcotest.test_case "resume under another jobs" `Quick
          test_durable_resume_under_other_jobs;
        Alcotest.test_case "refuses a foreign directory" `Quick
          test_durable_refuses_foreign_directory;
        Alcotest.test_case "resume with mixed configurations" `Quick
          test_resume_mixed_configurations;
        Alcotest.test_case "every must be positive" `Quick test_every_must_be_positive;
        Alcotest.test_case "records the spans of a plain run" `Quick
          test_durable_records_run_spans ] ) ]
