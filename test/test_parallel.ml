(* Tests for Prefix_parallel.Pool.map and the parallel wiring: ordered
   deterministic map, exception propagation, metric-registry
   consistency under concurrent emission, and jobs-N ≡ jobs-1
   equivalence for the harness and the fuzz campaign. *)

module Pool = Prefix_parallel.Pool
module Control = Prefix_obs.Control
module Metric = Prefix_obs.Metric
module Harness = Prefix_experiments.Harness
module Durable = Prefix_experiments.Durable
module Injector = Prefix_faults.Injector
module Campaign = Prefix_faults.Campaign

let check = Alcotest.check
let ci = Alcotest.int

(* ---- pool semantics ---- *)

let test_default_jobs () =
  Alcotest.(check bool) "at least 1" true (Pool.default_jobs () >= 1);
  Alcotest.(check bool) "bounded" true (Pool.default_jobs () <= 64)

let test_map_basic () =
  Alcotest.(check (list int)) "order preserved"
    [ 1; 4; 9; 16; 25 ]
    (Pool.map ~jobs:4 (fun x -> x * x) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 (fun x -> x) [ 7 ]);
  (* More jobs than items: one domain per item, no idle spawns. *)
  Alcotest.(check (list int)) "jobs > items" [ 2; 3 ] (Pool.map ~jobs:8 succ [ 1; 2 ]);
  Alcotest.(check (list int)) "jobs 0" [ 2; 3 ] (Pool.map ~jobs:0 succ [ 1; 2 ])

(* Uneven task durations must not reorder the merge. *)
let test_map_uneven_durations () =
  let work x =
    (* Later items finish first. *)
    let spin = (32 - x) * 20_000 in
    let acc = ref 0 in
    for i = 1 to spin do
      acc := (!acc * 31) + i
    done;
    ignore !acc;
    x
  in
  let xs = List.init 32 (fun i -> i) in
  Alcotest.(check (list int)) "merge in input order" xs (Pool.map ~jobs:4 work xs)

exception Boom of int

let test_map_exception () =
  (* The earliest failing index wins, however the schedule interleaves,
     and only once every item has run. *)
  let ran = Atomic.make 0 in
  (try
     ignore
       (Pool.map ~jobs:3
          (fun x ->
            Atomic.incr ran;
            if x mod 2 = 1 then raise (Boom x) else x)
          [ 0; 1; 2; 3; 4 ]);
     Alcotest.fail "expected Boom"
   with Boom i -> check ci "earliest failure propagates" 1 i);
  check ci "every item ran" 5 (Atomic.get ran);
  (* Each call spawns and joins its own domains: a failed call leaves
     nothing behind. *)
  Alcotest.(check (list int)) "next call unaffected" [ 10; 20 ]
    (Pool.map ~jobs:3 (fun x -> 10 * x) [ 1; 2 ])

(* Below two jobs or two items the map is [List.map]: every item runs
   on the calling domain, in input order. *)
let test_no_domain_below_two () =
  let me = (Domain.self () :> int) in
  let seen = ref [] in
  let f x =
    seen := ((Domain.self () :> int), x) :: !seen;
    x
  in
  ignore (Pool.map ~jobs:1 f [ 1; 2; 3 ]);
  ignore (Pool.map ~jobs:4 f [ 4 ]);
  Alcotest.(check (list (pair int int)))
    "caller's domain, input order"
    [ (me, 1); (me, 2); (me, 3); (me, 4) ]
    (List.rev !seen)

let prop_map_equals_list_map =
  QCheck.Test.make ~name:"Pool.map ≡ List.map for any jobs" ~count:30
    QCheck.(pair (int_range 1 5) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = (x * 73) mod 41 in
      Pool.map ~jobs f xs = List.map f xs)

(* ---- metric registry under concurrent emission ---- *)

let with_obs f () =
  Control.set true;
  Prefix_obs.Span.reset ();
  Metric.reset ();
  Fun.protect ~finally:(fun () -> Control.set false) f

let prop_registry_consistent_concurrent =
  QCheck.Test.make
    ~name:"metric registry is consistent under concurrent emission" ~count:10
    QCheck.(pair (int_range 2 4) (int_range 1 200))
    (fun (jobs, bumps) ->
      Control.set true;
      Metric.reset ();
      Fun.protect ~finally:(fun () -> Control.set false) @@ fun () ->
      let tasks = List.init (2 * jobs) (fun i -> i) in
      ignore
        (Pool.map ~jobs
           (fun i ->
             (* Handles are (re-)registered concurrently on purpose:
                same-name registration must return the same cell. *)
             let shared = Metric.counter "t.shared" in
             let own = Metric.counter (Printf.sprintf "t.own.%d" i) in
             let g = Metric.gauge "t.gauge" in
             let h = Metric.histogram ~lo:0. ~hi:10. ~buckets:4 "t.hist" in
             for _ = 1 to bumps do
               Metric.incr shared;
               Metric.incr own;
               Metric.observe h 5.
             done;
             Metric.set_max g (float_of_int i))
           tasks);
      let snap = Metric.snapshot () in
      let n = List.length tasks in
      List.assoc "t.shared" snap.counters = (n * bumps)
      && List.for_all
           (fun i -> List.assoc (Printf.sprintf "t.own.%d" i) snap.counters = bumps)
           tasks
      && List.assoc "t.gauge" snap.gauges = float_of_int (n - 1)
      &&
      let h = List.assoc "t.hist" snap.histograms in
      h.Metric.h_total = (n * bumps)
      && Array.fold_left ( + ) 0 h.Metric.h_counts = (n * bumps))

(* [parallel.tasks] counts every item a spawning map runs, on any
   domain; the [List.map] shortcut counts nothing. *)
let test_pool_utilization_counters =
  with_obs (fun () ->
      ignore (Pool.map ~jobs:1 (fun x -> x) (List.init 8 (fun i -> i)));
      ignore (Pool.map ~jobs:3 (fun x -> x * 2) (List.init 64 (fun i -> i)));
      let snap = Metric.snapshot () in
      check ci "every task counted" 64 (List.assoc "parallel.tasks" snap.counters);
      Alcotest.(check (list string)) "no other parallel metric" [ "parallel.tasks" ]
        (List.filter
           (fun k -> String.starts_with ~prefix:"parallel." k)
           (List.map fst snap.counters @ List.map fst snap.gauges)))

(* Spans emitted from spawned domains: one per task, all well-formed,
   each tagged with the domain that ran it. *)
let test_spans_from_domains =
  with_obs (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> Prefix_obs.Span.with_ ~cat:"test" "task" (fun () -> i))
           (List.init 16 (fun i -> i)));
      let spans = Prefix_obs.Span.completed () in
      check ci "one span per task" 16 (List.length spans);
      check ci "no dangling opens" 0 (Prefix_obs.Span.open_count ());
      List.iter
        (fun (s : Prefix_obs.Span.completed) ->
          Alcotest.(check bool) "domain arg present" true
            (List.mem_assoc "domain" s.args))
        spans)

(* ---- jobs-N ≡ jobs-1 for the harness ---- *)

let test_harness_jobs_equivalence () =
  let benches = [ "libc"; "swissmap" ] in
  Harness.clear_cache ();
  let seq = Harness.run_many ~jobs:1 benches in
  Harness.clear_cache ();
  let par = Harness.run_many ~jobs:4 benches in
  Harness.clear_cache ();
  List.iter2
    (fun (a : Harness.result) (b : Harness.result) ->
      check Alcotest.string ("report text " ^ a.wl.name) (Durable.render a)
        (Durable.render b);
      List.iter
        (fun proj ->
          Alcotest.(check bool)
            ("metrics identical " ^ a.wl.name)
            true
            (proj a = proj b))
        [ (fun (r : Harness.result) -> r.baseline.metrics);
          (fun r -> r.hds.metrics);
          (fun r -> r.halo.metrics);
          (fun r -> r.block.metrics);
          (fun r -> r.prefix_hot.metrics);
          (fun r -> r.prefix_hds.metrics);
          (fun r -> r.prefix_hdshot.metrics) ])
    seq par

(* ---- jobs-N ≡ jobs-1 for the fuzz campaign ---- *)

let test_campaign_jobs_equivalence () =
  List.iter
    (fun cfg ->
      let seq = Campaign.run ~jobs:1 cfg in
      let par = Campaign.run ~jobs:4 cfg in
      check ci "same run count" (List.length seq.runs) (List.length par.runs);
      List.iter2
        (fun (a : Campaign.run) (b : Campaign.run) ->
          check Alcotest.string "grid order" (a.bench ^ "/" ^ a.policy)
            (b.bench ^ "/" ^ b.policy);
          check ci "fault seed" a.fault_seed b.fault_seed;
          Alcotest.(check bool) "identical verdicts" true
            (a.drift_ok = b.drift_ok && a.strict_rejected = b.strict_rejected
            && a.recovered = b.recovered && a.degraded = b.degraded
            && a.drift = b.drift))
        seq.runs par.runs;
      check Alcotest.string "byte-identical report" (Campaign.report seq)
        (Campaign.report par))
    [ { Campaign.default_config with
        benches = [ "xalanc" ];
        kinds = [ Injector.Collide_ids; Injector.Mutate_sizes ];
        seeds = 2;
        region_cap = Some 65536 };
      (* `prefix fuzz --benches libc --seeds 2`: every fault kind and
         policy, no region cap. *)
      { Campaign.default_config with benches = [ "libc" ]; seeds = 2 } ]

let suite =
  [ ( "parallel",
      [ Alcotest.test_case "default jobs" `Quick test_default_jobs;
        Alcotest.test_case "map basics" `Quick test_map_basic;
        Alcotest.test_case "uneven durations keep order" `Quick
          test_map_uneven_durations;
        Alcotest.test_case "exception propagation" `Quick test_map_exception;
        Alcotest.test_case "no domain below two jobs or items" `Quick
          test_no_domain_below_two;
        QCheck_alcotest.to_alcotest prop_map_equals_list_map;
        QCheck_alcotest.to_alcotest prop_registry_consistent_concurrent;
        Alcotest.test_case "pool utilization counters" `Quick
          test_pool_utilization_counters;
        Alcotest.test_case "spans from pool domains" `Quick test_spans_from_domains;
        Alcotest.test_case "harness jobs 1 = jobs 4" `Slow
          test_harness_jobs_equivalence;
        Alcotest.test_case "campaign jobs 1 = jobs 4" `Slow
          test_campaign_jobs_equivalence ] ) ]
