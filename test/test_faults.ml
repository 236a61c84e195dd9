(* Tests for the robustness layer: trace sanitizer, fault injectors,
   lenient executor recovery, and the campaign driver. *)

open Prefix_trace
module Injector = Prefix_faults.Injector
module Campaign = Prefix_faults.Campaign
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Metric = Prefix_obs.Metric
module Control = Prefix_obs.Control
module B = Prefix_workloads.Builder

let ev_alloc ?(site = 1) ?(thread = 0) obj size =
  Event.Alloc { obj; site; ctx = site; size; thread }

let ev_access ?(write = false) ?(thread = 0) obj offset =
  Event.Access { obj; offset; write; thread }

let ev_free ?(thread = 0) obj = Event.Free { obj; thread }
let ev_realloc ?(thread = 0) obj new_size = Event.Realloc { obj; new_size; thread }
let ev_compute ?(thread = 0) instrs = Event.Compute { instrs; thread }

let check_counts what events expected =
  let r = Sanitizer.scan (Trace.of_list events) in
  List.iter
    (fun a ->
      let want = try List.assoc a expected with Not_found -> 0 in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s" what (Sanitizer.name a))
        want (Sanitizer.count r a))
    Sanitizer.all

(* ---- sanitizer classification: one test per anomaly kind ---- *)

let test_sanitizer_clean () =
  let events = [ ev_alloc 1 64; ev_access 1 0; ev_free 1 ] in
  check_counts "clean" events [];
  let t = Trace.of_list events in
  let repaired, r = Sanitizer.sanitize t in
  Alcotest.(check bool) "clean" true (Sanitizer.clean r);
  Alcotest.(check bool) "round-trips" true (Trace.to_list repaired = events);
  match Sanitizer.check t with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "check rejected a clean trace"

let test_sanitizer_duplicate_alloc () =
  check_counts "dup alloc"
    [ ev_alloc 1 64; ev_alloc 1 64; ev_free 1 ]
    [ (Sanitizer.Duplicate_alloc, 1) ]

let test_sanitizer_use_after_free () =
  check_counts "uaf"
    [ ev_alloc 1 64; ev_free 1; ev_access 1 8 ]
    [ (Sanitizer.Use_after_free, 1); (Sanitizer.Leak, 1) ]
(* the synthesized replacement object stays live: one leak *)

let test_sanitizer_unknown_access () =
  check_counts "unknown access"
    [ ev_access 9 4 ]
    [ (Sanitizer.Unknown_access, 1); (Sanitizer.Leak, 1) ]

let test_sanitizer_out_of_bounds () =
  check_counts "oob"
    [ ev_alloc 1 16; ev_access 1 100; ev_free 1 ]
    [ (Sanitizer.Out_of_bounds, 1) ]

let test_sanitizer_double_free () =
  check_counts "double free"
    [ ev_alloc 1 64; ev_free 1; ev_free 1 ]
    [ (Sanitizer.Double_free, 1) ]

let test_sanitizer_unknown_free () =
  check_counts "unknown free" [ ev_free 5 ] [ (Sanitizer.Unknown_free, 1) ]

let test_sanitizer_unknown_realloc () =
  check_counts "unknown realloc"
    [ ev_realloc 5 32; ev_free 5 ]
    [ (Sanitizer.Unknown_realloc, 1) ]

let test_sanitizer_nonpositive_size () =
  check_counts "nonpositive size"
    [ ev_alloc 1 0; ev_free 1; ev_alloc 2 (-8); ev_free 2 ]
    [ (Sanitizer.Nonpositive_size, 2) ]

let test_sanitizer_negative_field () =
  check_counts "negative field"
    [ ev_compute (-5); ev_alloc 1 64 ~thread:0; ev_access 1 (-4); ev_free 1 ]
    [ (Sanitizer.Negative_field, 2) ]

let test_sanitizer_leak () =
  let events = [ ev_alloc 1 64; ev_access 1 0 ] in
  check_counts "leak" events [ (Sanitizer.Leak, 1) ];
  let r = Sanitizer.scan (Trace.of_list events) in
  (* A leak alone is not structural: real programs exit with live objects. *)
  Alcotest.(check int) "not structural" 0 (Sanitizer.structural r);
  Alcotest.(check bool) "still clean" true (Sanitizer.clean r)

(* ---- sanitizer repair ---- *)

(* Every repaired trace must satisfy the strict executor, whatever the
   corruption was. *)
let test_sanitize_repairs_for_strict_replay () =
  let cases =
    [ ("dup alloc", [ ev_alloc 1 64; ev_access 1 8; ev_alloc 1 32; ev_access 1 8 ]);
      ("uaf", [ ev_alloc 1 64; ev_free 1; ev_access 1 8 ]);
      ("unknown access", [ ev_access 9 4; ev_access 9 123 ]);
      ("oob", [ ev_alloc 1 16; ev_access 1 500 ]);
      ("double free", [ ev_alloc 1 16; ev_free 1; ev_free 1 ]);
      ("unknown free", [ ev_free 5; ev_alloc 5 16; ev_free 5 ]);
      ("unknown realloc", [ ev_realloc 5 32; ev_access 5 16 ]);
      ("bad sizes", [ ev_alloc 1 0; ev_access 1 0; ev_realloc 1 (-4); ev_free 1 ]);
      ("negative fields", [ ev_compute (-1); ev_alloc 1 16 ~thread:0; ev_access 1 (-9) ])
    ]
  in
  List.iter
    (fun (what, events) ->
      let repaired, r = Sanitizer.sanitize (Trace.of_list events) in
      Alcotest.(check bool) (what ^ ": anomalies found") true (Sanitizer.total r > 0);
      (* repaired trace scans clean, including leak-free *)
      Alcotest.(check int) (what ^ ": rescan")
        0 (Sanitizer.total (Sanitizer.scan repaired));
      match Replay.trace ~policy:Replay.baseline repaired with
      | _ -> ()
      | exception e ->
        Alcotest.fail
          (Printf.sprintf "%s: strict replay of repaired trace raised %s" what
             (Printexc.to_string e)))
    cases

let test_check_rejects_with_report () =
  match Sanitizer.check (Trace.of_list [ ev_alloc 1 16; ev_free 1; ev_free 1 ]) with
  | Ok _ -> Alcotest.fail "accepted a double free"
  | Error r -> Alcotest.(check int) "double_free" 1 (Sanitizer.count r Sanitizer.Double_free)

let test_export_metrics () =
  Control.set true;
  Metric.reset ();
  let r = Sanitizer.scan (Trace.of_list [ ev_alloc 1 16; ev_free 1; ev_free 1 ]) in
  Sanitizer.export_metrics r;
  let v =
    match List.assoc_opt "sanitizer.double_free" (Metric.snapshot ()).counters with
    | Some v -> v
    | None -> Alcotest.fail "sanitizer.double_free not exported"
  in
  Control.set false;
  Metric.reset ();
  Alcotest.(check int) "counter value" 1 v

(* ---- injectors ---- *)

let sample_trace () =
  let w = Prefix_workloads.Registry.find "xalanc" in
  w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ()

let test_injector_deterministic () =
  let t = sample_trace () in
  List.iter
    (fun kind ->
      let a = Injector.inject kind ~seed:3 t in
      let b = Injector.inject kind ~seed:3 t in
      Alcotest.(check bool)
        (Injector.kind_name kind ^ " deterministic")
        true
        (Trace.to_list a = Trace.to_list b);
      Alcotest.(check bool)
        (Injector.kind_name kind ^ " corrupts")
        true
        (Trace.to_list a <> Trace.to_list t))
    Injector.all_kinds

let test_injector_seeds_differ () =
  let t = sample_trace () in
  (* Not required kind-by-kind, but across all kinds at least one seed
     pair must differ — a constant injector is broken. *)
  let differs =
    List.exists
      (fun kind ->
        Trace.to_list (Injector.inject kind ~seed:0 t)
        <> Trace.to_list (Injector.inject kind ~seed:1 t))
      Injector.all_kinds
  in
  Alcotest.(check bool) "seeds matter" true differs

let test_injector_detected () =
  let t = sample_trace () in
  let base_leaks = Sanitizer.count (Sanitizer.scan t) Sanitizer.Leak in
  List.iter
    (fun kind ->
      let corrupted = Injector.inject kind ~seed:1 t in
      let r = Sanitizer.scan corrupted in
      let detected =
        match kind with
        | Injector.Truncate ->
          (* A truncation that cuts on an object boundary is
             indistinguishable from a shorter run — assert the cut
             itself, plus any extra leaks it may cause. *)
          Trace.length corrupted < Trace.length t
          && Sanitizer.count r Sanitizer.Leak >= base_leaks
        | _ ->
          Sanitizer.structural r > 0
          || Sanitizer.count r Sanitizer.Leak > base_leaks
      in
      Alcotest.(check bool)
        (Injector.kind_name kind ^ " detected by sanitizer")
        true detected)
    Injector.all_kinds

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Injector.kind_of_name (Injector.kind_name k) with
      | Ok k' -> Alcotest.(check bool) (Injector.kind_name k) true (k = k')
      | Error e -> Alcotest.fail e)
    Injector.all_kinds;
  match Injector.kind_of_name "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bogus kind name"

(* ---- lenient executor ---- *)

let test_lenient_executor_recovers () =
  let events =
    [ ev_alloc 1 64;
      ev_access 1 0;
      ev_access 9 4; (* unknown access *)
      ev_free 5; (* unknown free *)
      ev_free 1;
      ev_free 1; (* double free *)
      ev_realloc 7 32; (* unknown realloc *)
      ev_alloc 2 0; (* nonpositive size *)
      ev_free 2 ]
  in
  let t = Trace.of_list events in
  (* strict: first bad event raises *)
  (match Replay.trace ~policy:Replay.baseline t with
  | _ -> Alcotest.fail "strict accepted a corrupt trace"
  | exception Invalid_argument _ -> ());
  (* lenient: full replay with per-kind recovery counts *)
  let o = Replay.trace ~mode:Policy.Lenient ~policy:Replay.baseline t in
  let r = o.Executor.recovery in
  Alcotest.(check int) "unknown accesses" 1 r.unknown_accesses;
  Alcotest.(check int) "unknown frees" 2 r.unknown_frees;
  Alcotest.(check int) "unknown reallocs" 1 r.unknown_reallocs;
  Alcotest.(check int) "invalid sizes" 1 r.invalid_sizes;
  Alcotest.(check int) "total" 5 (Executor.recovery_total r)

let test_lenient_double_alloc () =
  let t = Trace.of_list [ ev_alloc 1 64; ev_access 1 0; ev_alloc 1 32; ev_access 1 8 ] in
  let o = Replay.trace ~mode:Policy.Lenient ~policy:Replay.baseline t in
  Alcotest.(check int) "double allocs" 1 o.Executor.recovery.double_allocs;
  Alcotest.(check int) "no other recoveries" 1
    (Executor.recovery_total o.Executor.recovery)

let test_strict_unchanged_recovery_zero () =
  let b = B.create ~seed:3 () in
  let o = B.alloc b ~site:1 64 in
  B.access b o 0;
  B.free b o;
  let outcome = Replay.trace ~policy:Replay.baseline (B.trace b) in
  Alcotest.(check int) "no recoveries" 0
    (Executor.recovery_total outcome.Executor.recovery)

(* ---- sanitizer idempotence ---- *)

(* Sanitizing is a repair fixpoint: whatever an injector (any kind, any
   seed, any rate) did to a well-formed trace, one sanitize pass must
   produce a trace a second pass finds nothing wrong with — no
   anomalies, no drops, no synthesis, no rewrites — and leaves
   byte-identical. *)
let prop_sanitize_idempotent =
  let base =
    lazy
      (let b = B.create ~seed:99 () in
       let objs = Array.init 12 (fun i -> B.alloc b ~site:(1 + (i mod 4)) (24 * (i + 1))) in
       for k = 0 to 399 do
         B.access b objs.(k mod 12) ~write:(k mod 3 = 0) (k mod 24);
         if k mod 17 = 0 then B.compute b (k * 10)
       done;
       Array.iteri (fun i o -> if i mod 3 <> 0 then B.free b o) objs;
       B.trace b)
  in
  let gen =
    QCheck.Gen.(
      triple (oneofl Injector.all_kinds) (int_range 0 9999)
        (oneofl [ 0.01; 0.05; 0.2; 0.5 ]))
  in
  let print (k, seed, rate) =
    Printf.sprintf "%s seed=%d rate=%.2f" (Injector.kind_name k) seed rate
  in
  QCheck.Test.make ~name:"sanitize is idempotent over every injector kind"
    ~count:200
    (QCheck.make ~print gen)
    (fun (kind, seed, rate) ->
      let corrupted = Injector.inject kind ~seed ~rate (Lazy.force base) in
      let repaired, _ = Sanitizer.sanitize corrupted in
      let again, r2 = Sanitizer.sanitize repaired in
      Trace.to_list again = Trace.to_list repaired
      && r2.Sanitizer.dropped = 0
      && r2.Sanitizer.synthesized = 0
      && r2.Sanitizer.rewritten = 0
      && List.for_all (fun (_, c) -> c = 0) r2.Sanitizer.counts)

(* ---- campaign smoke ---- *)

let test_campaign_smoke () =
  let cfg =
    { Campaign.default_config with
      benches = [ "xalanc" ];
      kinds = [ Injector.Collide_ids; Injector.Mutate_sizes ];
      seeds = 2;
      region_cap = Some 65536 }
  in
  let s = Campaign.run cfg in
  Alcotest.(check int) "runs" (1 * 4 * 2 * 2) (List.length s.runs);
  Alcotest.(check (list string)) "no exceptions" [] (Campaign.exceptions s);
  Alcotest.(check bool) "ok" true (Campaign.ok s);
  (* every corrupted trace was structurally anomalous and rejected *)
  List.iter
    (fun (r : Campaign.run) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s rejected" r.policy (Injector.kind_name r.kind))
        true r.strict_rejected)
    s.runs;
  let report = Campaign.report s in
  Alcotest.(check bool) "report has table" true
    (String.length report > 0 && String.contains report '|')

let suite =
  [ ( "sanitizer",
      [ Alcotest.test_case "clean round-trip" `Quick test_sanitizer_clean;
        Alcotest.test_case "duplicate alloc" `Quick test_sanitizer_duplicate_alloc;
        Alcotest.test_case "use after free" `Quick test_sanitizer_use_after_free;
        Alcotest.test_case "unknown access" `Quick test_sanitizer_unknown_access;
        Alcotest.test_case "out of bounds" `Quick test_sanitizer_out_of_bounds;
        Alcotest.test_case "double free" `Quick test_sanitizer_double_free;
        Alcotest.test_case "unknown free" `Quick test_sanitizer_unknown_free;
        Alcotest.test_case "unknown realloc" `Quick test_sanitizer_unknown_realloc;
        Alcotest.test_case "nonpositive size" `Quick test_sanitizer_nonpositive_size;
        Alcotest.test_case "negative field" `Quick test_sanitizer_negative_field;
        Alcotest.test_case "leak" `Quick test_sanitizer_leak;
        Alcotest.test_case "repairs for strict replay" `Quick
          test_sanitize_repairs_for_strict_replay;
        Alcotest.test_case "check rejects" `Quick test_check_rejects_with_report;
        Alcotest.test_case "metric export" `Quick test_export_metrics;
        QCheck_alcotest.to_alcotest prop_sanitize_idempotent ] );
    ( "injector",
      [ Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_injector_seeds_differ;
        Alcotest.test_case "faults detected" `Quick test_injector_detected;
        Alcotest.test_case "kind names" `Quick test_kind_names_roundtrip ] );
    ( "lenient executor",
      [ Alcotest.test_case "recovers" `Quick test_lenient_executor_recovers;
        Alcotest.test_case "double alloc" `Quick test_lenient_double_alloc;
        Alcotest.test_case "strict recovery zero" `Quick
          test_strict_unchanged_recovery_zero ] );
    ( "campaign",
      [ Alcotest.test_case "smoke" `Quick test_campaign_smoke ] ) ]
