(* Tests for the trace pruner and the binary trace format. *)

open Prefix_trace
module B = Prefix_workloads.Builder

(* ---- Pruner ---- *)

let pruner_input () =
  let b = B.create ~seed:21 () in
  let hot = B.alloc b ~site:1 64 in
  let cold = B.alloc b ~site:2 64 in
  for _ = 1 to 50 do
    (* a long same-object run on the hot object, one cold access *)
    for k = 0 to 9 do
      B.access b hot (k * 4 mod 64)
    done;
    B.access b cold 0
  done;
  B.free b hot;
  B.free b cold;
  (B.trace b, hot, cold)

let test_prune_drops_cold_accesses () =
  let trace, hot, _cold = pruner_input () in
  let cfg = { Pruner.keep_objects = (fun o -> o = hot); max_run = max_int } in
  let pruned = Pruner.prune cfg trace in
  Trace.iter
    (fun e ->
      match (e : Event.t) with
      | Access { obj; _ } -> Alcotest.(check int) "only hot accesses" hot obj
      | _ -> ())
    pruned;
  (* All non-access events survive: 2 allocs + 2 frees. *)
  let non_access =
    Trace.fold (fun n e -> if Event.is_heap_access e then n else n + 1) 0 pruned
  in
  Alcotest.(check int) "alloc/free preserved" 4 non_access

let test_prune_caps_runs () =
  let trace, hot, _ = pruner_input () in
  let cfg = { Pruner.keep_objects = (fun o -> o = hot); max_run = 3 } in
  let pruned = Pruner.prune cfg trace in
  (* Each 10-access run is capped at 3: 50 runs * 3 accesses. *)
  Alcotest.(check int) "runs capped" 150 (Trace.num_accesses pruned)

let test_prune_preserves_validity () =
  let trace, hot, _ = pruner_input () in
  let cfg = { Pruner.keep_objects = (fun o -> o = hot); max_run = 2 } in
  let pruned = Pruner.prune cfg trace in
  Alcotest.(check int) "valid" 0 (List.length (Trace.validate pruned))

let test_prune_config_for_hot () =
  let trace, hot, _ = pruner_input () in
  let stats = Trace_stats.analyze trace in
  let cfg = Pruner.config_for_hot stats in
  Alcotest.(check bool) "hot kept" true (cfg.keep_objects hot);
  let pruned = Pruner.prune cfg trace in
  Alcotest.(check bool) "reduction positive" true
    (Pruner.reduction ~before:trace ~after:pruned > 0.3)

let test_prune_keeps_instance_numbering () =
  (* Instance numbering over the pruned trace must match the original. *)
  let trace, _, _ = pruner_input () in
  let stats = Trace_stats.analyze trace in
  let cfg = Pruner.config_for_hot stats in
  let pruned = Pruner.prune cfg trace in
  let s1 = Trace_stats.analyze trace and s2 = Trace_stats.analyze pruned in
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      let o' = Trace_stats.obj_info s2 o.obj in
      Alcotest.(check int) "same instance" o.instance o'.instance;
      Alcotest.(check int) "same site" o.site o'.site)
    (Trace_stats.objects s1)

(* ---- Binary format ---- *)

let test_binfmt_roundtrip_workloads () =
  List.iter
    (fun name ->
      let w = Prefix_workloads.Registry.find name in
      let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      match Binfmt.read (Binfmt.to_bytes trace) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok trace' ->
        Alcotest.(check int) (name ^ " length") (Trace.length trace) (Trace.length trace');
        (* spot-check a few events *)
        List.iter
          (fun i ->
            Alcotest.(check string) (name ^ " event")
              (Event.to_string (Trace.get trace i))
              (Event.to_string (Trace.get trace' i)))
          [ 0; Trace.length trace / 2; Trace.length trace - 1 ])
    [ "mcf"; "libc"; "swissmap" ]

let test_binfmt_compact () =
  let w = Prefix_workloads.Registry.find "libc" in
  let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
  let binary = Bytes.length (Binfmt.to_bytes trace) in
  let text = String.length (Serialize.to_string trace) in
  Alcotest.(check bool)
    (Printf.sprintf "binary (%d B) at most half of text (%d B)" binary text)
    true
    (binary * 2 < text)

let test_binfmt_rejects_garbage () =
  (match Binfmt.read (Bytes.of_string "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad magic");
  (match Binfmt.read (Bytes.of_string "PFXT") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncation");
  (* valid header claiming one event but no payload *)
  let buf = Buffer.create 8 in
  Buffer.add_string buf "PFXT\001\001";
  match Binfmt.read (Buffer.to_bytes buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted missing event"

let test_binfmt_file_io () =
  let w = Prefix_workloads.Registry.find "mcf" in
  let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
  let path = Filename.temp_file "prefix_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binfmt.write_file path trace;
      match Binfmt.read_file path with
      | Ok t -> Alcotest.(check int) "roundtrip" (Trace.length trace) (Trace.length t)
      | Error e -> Alcotest.fail e)

let prop_binfmt_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 80)
        (oneof
           [ map3
               (fun o s size -> Event.Alloc { obj = o; site = s; ctx = s; size = size + 1; thread = 0 })
               (int_range 1 1000) (int_range 1 50) (int_range 0 5000);
             map2
               (fun o off -> Event.Access { obj = o; offset = off; write = off mod 2 = 0; thread = 0 })
               (int_range 1 1000) (int_range 0 10_000);
             map (fun o -> Event.Free { obj = o; thread = 0 }) (int_range 1 1000);
             map2 (fun o s -> Event.Realloc { obj = o; new_size = s + 1; thread = 0 })
               (int_range 1 1000) (int_range 0 5000);
             map (fun n -> Event.Compute { instrs = n; thread = 0 }) (int_range 0 100_000) ]))
  in
  QCheck.Test.make ~name:"binfmt roundtrips arbitrary event lists" ~count:300
    (QCheck.make gen)
    (fun es ->
      let t = Trace.of_list es in
      match Binfmt.read (Binfmt.to_bytes t) with
      | Ok t' -> Trace.to_list t' = es
      | Error _ -> false)

(* Decode fuzz: random byte flips and truncations of a valid encoding
   must yield [Ok] or [Error] — never an exception (and never an
   absurd allocation). *)
let prop_binfmt_decode_fuzz =
  let base =
    let b = B.create ~seed:33 () in
    let objs = Array.init 8 (fun i -> B.alloc b ~site:(i + 1) (32 * (i + 1))) in
    for k = 0 to 199 do
      B.access b objs.(k mod 8) (k mod 32)
    done;
    Array.iter (fun o -> B.free b o) objs;
    Binfmt.to_bytes (B.trace b)
  in
  let n = Bytes.length base in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (pair (int_range 0 (n - 1)) (int_range 0 255)))
        (int_range 0 n))
  in
  QCheck.Test.make ~name:"binfmt decode survives byte flips and truncation"
    ~count:500 (QCheck.make gen)
    (fun (flips, keep) ->
      let data = Bytes.sub base 0 keep in
      List.iter
        (fun (pos, v) ->
          if pos < keep then Bytes.set data pos (Char.chr v))
        flips;
      match Binfmt.read data with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* ---- varint extremes ---- *)

(* The signed (zig-zag) varint must round-trip the full 63-bit [int]
   range: [zigzag min_int] has bit 62 set, so the unsigned encoder
   must not reject it as "negative" (it only looks negative after the
   shift) and the decoder must accept an accumulator whose top bit is
   set.  This was broken before [put_uvarint63]/[get_uvarint63]. *)
let varint_roundtrip n =
  let buf = Buffer.create 10 in
  Binfmt.put_varint buf n;
  let c = Binfmt.cursor (Prefix_util.Bigio.of_bytes (Buffer.to_bytes buf)) in
  match Binfmt.get_varint c with
  | Error e -> Alcotest.failf "varint %d: %s" n e
  | Ok n' ->
    Alcotest.(check int) (Printf.sprintf "varint %d" n) n n';
    Alcotest.(check int) "all bytes consumed" c.Binfmt.limit c.Binfmt.pos

let test_varint_extremes () =
  List.iter varint_roundtrip
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; max_int - 1; min_int + 1;
      1 lsl 62; -(1 lsl 62); 0x7fffffff; -0x80000000 ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"signed varint roundtrips the full int range" ~count:1000
    QCheck.(set_gen QCheck.Gen.int int)
    (fun n ->
      let buf = Buffer.create 10 in
      Binfmt.put_varint buf n;
      let c = Binfmt.cursor (Prefix_util.Bigio.of_bytes (Buffer.to_bytes buf)) in
      Binfmt.get_varint c = Ok n && c.Binfmt.pos = c.Binfmt.limit)

let test_event_int_extremes () =
  (* Whole events at the integer extremes, through v1 and v2.  The
     signed (delta-coded) fields — obj, site, ctx — span the full
     [int] range; sizes, offsets, threads and instruction counts are
     unsigned on this wire, so their extreme is [max_int]. *)
  let es : Event.t list =
    [ Alloc { obj = max_int; site = max_int; ctx = max_int; size = max_int; thread = max_int };
      Access { obj = min_int; offset = max_int; write = true; thread = 0 };
      Alloc { obj = min_int; site = min_int; ctx = min_int; size = 0; thread = 0 };
      Realloc { obj = min_int; new_size = max_int; thread = 0 };
      Compute { instrs = max_int; thread = 1 };
      Free { obj = max_int; thread = max_int } ]
  in
  let t = Trace.of_list es in
  (match Binfmt.read (Binfmt.to_bytes t) with
  | Error e -> Alcotest.failf "v1: %s" e
  | Ok t' -> Alcotest.(check bool) "v1 roundtrip" true (Trace.to_list t' = es));
  match Binfmt.read (Binfmt.to_bytes_framed ~frame_events:2 t) with
  | Error e -> Alcotest.failf "v2: %s" e
  | Ok t' -> Alcotest.(check bool) "v2 roundtrip" true (Trace.to_list t' = es)

(* ---- framed (v2) format ---- *)

let framed_input =
  lazy
    (let w = Prefix_workloads.Registry.find "libc" in
     w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ())

let check_same_trace name a b =
  Alcotest.(check int) (name ^ " length") (Trace.length a) (Trace.length b);
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "%s event %d" name i)
        (Event.to_string (Trace.get a i))
        (Event.to_string (Trace.get b i)))
    [ 0; Trace.length a / 3; Trace.length a / 2; Trace.length a - 1 ]

let test_framed_roundtrip_small_frames () =
  let trace = Lazy.force framed_input in
  List.iter
    (fun frame_events ->
      match Binfmt.read (Binfmt.to_bytes_framed ~frame_events trace) with
      | Error e -> Alcotest.failf "frame_events %d: %s" frame_events e
      | Ok t ->
        check_same_trace (Printf.sprintf "frames of %d" frame_events) trace t)
    [ 1; 7; 1000; 1_000_000 ]

let test_framed_matches_v1_decode () =
  let trace = Lazy.force framed_input in
  match
    (Binfmt.read (Binfmt.to_bytes trace),
     Binfmt.read (Binfmt.to_bytes_framed ~frame_events:999 trace))
  with
  | Ok v1, Ok v2 -> check_same_trace "v1 vs v2" v1 v2
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_framed_strict_rejects_corruption () =
  let trace = Lazy.force framed_input in
  let data = Binfmt.to_bytes_framed ~frame_events:1000 trace in
  let n = Bytes.length data in
  List.iter
    (fun pos ->
      let d = Bytes.copy data in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x01));
      match Binfmt.read d with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted a flipped byte at offset %d" pos)
    [ n / 4; n / 2; (3 * n) / 4 ];
  (* Losing the footer is also corruption for the strict reader. *)
  match Binfmt.read (Bytes.sub data 0 (n - 8)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated file"

(* Byte offsets of every frame marker, so corruption can be aimed at
   one specific frame. *)
let frame_offsets data =
  let n = Bytes.length data in
  let acc = ref [] in
  for p = n - 4 downto 0 do
    if Bytes.sub_string data p 4 = "FRME" then acc := p :: !acc
  done;
  !acc

let test_framed_lenient_exact_loss () =
  let trace = Lazy.force framed_input in
  let total = Trace.length trace in
  let frame_events = 1000 in
  let data = Binfmt.to_bytes_framed ~frame_events trace in
  let offsets = frame_offsets data in
  let frames = List.length offsets in
  Alcotest.(check int) "frame count"
    ((total + frame_events - 1) / frame_events)
    frames;
  (* Corrupt exactly the k-th frame (a byte past its marker + header)
     and expect exactly its event range reported lost. *)
  List.iter
    (fun k ->
      let d = Bytes.copy data in
      let pos = List.nth offsets k + 24 in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x40));
      match Binfmt.read_lenient d with
      | Error e -> Alcotest.fail e
      | Ok l ->
        let lost_from = k * frame_events in
        let lost_to = min total ((k + 1) * frame_events) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "lost range of frame %d" k)
          [ (lost_from, lost_to) ]
          (List.map
             (fun r -> (r.Binfmt.lost_from, r.Binfmt.lost_to))
             l.Binfmt.lr_lost);
        Alcotest.(check int) "events lost" (lost_to - lost_from)
          (Binfmt.lenient_events_lost l);
        Alcotest.(check int) "events recovered"
          (total - (lost_to - lost_from))
          (Trace.length l.Binfmt.lr_trace);
        Alcotest.(check int) "frames ok" (frames - 1) l.Binfmt.lr_frames_ok;
        Alcotest.(check int) "frames skipped" 1 l.Binfmt.lr_frames_skipped;
        Alcotest.(check (option int)) "footer total" (Some total)
          l.Binfmt.lr_total_events)
    [ 0; frames / 2; frames - 1 ]

let test_framed_lenient_truncation () =
  let trace = Lazy.force framed_input in
  let data = Binfmt.to_bytes_framed ~frame_events:1000 trace in
  (* Cut mid-way: the tail (and the footer) are gone, so the total is
     unknowable and the surviving prefix is whole frames only. *)
  match Binfmt.read_lenient (Bytes.sub data 0 (Bytes.length data / 2)) with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check (option int)) "no footer" None l.Binfmt.lr_total_events;
    Alcotest.(check int) "whole frames only" 0
      (Trace.length l.Binfmt.lr_trace mod 1000);
    Alcotest.(check bool) "something recovered" true
      (Trace.length l.Binfmt.lr_trace > 0)

let test_binfmt_empty_file_message () =
  List.iter
    (fun data ->
      match Binfmt.read data with
      | Ok _ -> Alcotest.fail "accepted an empty/truncated input"
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions truncation" e)
          true
          (let prefix = "empty or truncated file" in
           String.length e >= String.length prefix
           && String.sub e 0 (String.length prefix) = prefix))
    [ Bytes.create 0; Bytes.of_string "PF" ]

let test_stream_of_binary_file_frame_boundaries () =
  let trace = Lazy.force framed_input in
  let total = Trace.length trace in
  let frame_events = 512 in
  let path = Filename.temp_file "prefix_framed" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binfmt.write_file_framed ~frame_events path trace;
      let stream = Stream.of_binary_file ~segment_events:frame_events path in
      let seen = ref 0 in
      Stream.iter_segments stream (fun ~base seg ->
          Alcotest.(check int) "segment starts on a frame boundary" 0
            (base mod frame_events);
          Alcotest.(check int) "segment base is the running total" !seen base;
          seen := !seen + Packed.length seg);
      Alcotest.(check int) "all events streamed" total !seen)

let suite =
  [ ( "pruner",
      [ Alcotest.test_case "drops cold accesses" `Quick test_prune_drops_cold_accesses;
        Alcotest.test_case "caps runs" `Quick test_prune_caps_runs;
        Alcotest.test_case "preserves validity" `Quick test_prune_preserves_validity;
        Alcotest.test_case "config for hot" `Quick test_prune_config_for_hot;
        Alcotest.test_case "keeps instance numbering" `Quick
          test_prune_keeps_instance_numbering ] );
    ( "binfmt",
      [ Alcotest.test_case "roundtrips workload traces" `Quick test_binfmt_roundtrip_workloads;
        Alcotest.test_case "compact vs text" `Quick test_binfmt_compact;
        Alcotest.test_case "rejects garbage" `Quick test_binfmt_rejects_garbage;
        Alcotest.test_case "file io" `Quick test_binfmt_file_io;
        QCheck_alcotest.to_alcotest prop_binfmt_roundtrip;
        QCheck_alcotest.to_alcotest prop_binfmt_decode_fuzz;
        Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
        QCheck_alcotest.to_alcotest prop_varint_roundtrip;
        Alcotest.test_case "events at int extremes" `Quick test_event_int_extremes ] );
    ( "binfmt-v2",
      [ Alcotest.test_case "framed roundtrip, small frames" `Quick
          test_framed_roundtrip_small_frames;
        Alcotest.test_case "v2 decodes identically to v1" `Quick
          test_framed_matches_v1_decode;
        Alcotest.test_case "strict read rejects corruption" `Quick
          test_framed_strict_rejects_corruption;
        Alcotest.test_case "lenient read pins the exact lost range" `Quick
          test_framed_lenient_exact_loss;
        Alcotest.test_case "lenient read of a truncated file" `Quick
          test_framed_lenient_truncation;
        Alcotest.test_case "empty file error message" `Quick
          test_binfmt_empty_file_message;
        Alcotest.test_case "of_binary_file cuts segments at frame boundaries"
          `Quick test_stream_of_binary_file_frame_boundaries ] ) ]
