(* Tests for the continuous-telemetry engine: monotonic clock
   guarantees, the mergeable quantile sketch and its rank-error bound,
   the coarsening time-series ring, the flight recorder's tick/poll
   semantics, the OpenMetrics/CSV exporters (including a golden file
   and a 4-domain concurrent-emission property), and the
   streamed-vs-materialized equality of recorder timelines. *)

module Clock = Prefix_obs.Clock
module Control = Prefix_obs.Control
module Metric = Prefix_obs.Metric
module Sketch = Prefix_obs.Sketch
module Timeseries = Prefix_obs.Timeseries
module Recorder = Prefix_obs.Recorder
module Export = Prefix_obs.Export

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* Serialise against the process-global registry/recorder; always leave
   both off so unrelated suites stay unobserved. *)
let with_rec f () =
  Control.set true;
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Recorder.disable ();
      Metric.reset ();
      Control.set false)
    f

(* ---- clock ---- *)

let nondecreasing arr =
  let ok = ref true in
  for i = 1 to Array.length arr - 1 do
    if Int64.compare arr.(i) arr.(i - 1) < 0 then ok := false
  done;
  !ok

let test_clock_monotonic () =
  let samples = Array.init 10_000 (fun _ -> Clock.now_ns ()) in
  check cb "10k samples non-decreasing" true (nondecreasing samples)

let test_clock_monotonic_domains () =
  (* The high-water clamp is process-wide: every domain's own sample
     sequence must be non-decreasing even while three others race it. *)
  let run () = nondecreasing (Array.init 10_000 (fun _ -> Clock.now_ns ())) in
  let ds = Array.init 4 (fun _ -> Domain.spawn run) in
  Array.iteri
    (fun i d -> check cb (Printf.sprintf "domain %d non-decreasing" i) true (Domain.join d))
    ds

(* ---- sketch ---- *)

(* The documented contract: the estimate for rank [q * (n-1)] is off by
   at most [rank_error_bound] ranks (a couple extra for interpolation
   across a centroid boundary). *)
let check_rank_bound ~msg xs sk q =
  let n = Array.length xs in
  let est = Sketch.quantile sk q in
  let below = Array.fold_left (fun a x -> if x < est then a + 1 else a) 0 xs in
  let above = Array.fold_left (fun a x -> if x > est then a + 1 else a) 0 xs in
  let bound = float_of_int (Sketch.rank_error_bound sk) +. 2. in
  let target = q *. float_of_int (n - 1) in
  let lower_ok = float_of_int below <= target +. bound in
  let upper_ok = float_of_int above <= (float_of_int (n - 1) -. target) +. bound in
  if not (lower_ok && upper_ok) then
    Alcotest.failf "%s: q=%g est=%g below=%d above=%d n=%d bound=%g" msg q est below
      above n bound

let test_sketch_basics () =
  let sk = Sketch.create ~capacity:16 () in
  check ci "empty count" 0 (Sketch.count sk);
  check cb "empty quantile nan" true (Float.is_nan (Sketch.quantile sk 0.5));
  check cb "empty min nan" true (Float.is_nan (Sketch.min_value sk));
  Sketch.add sk 42.;
  Sketch.add sk nan;
  check ci "nan dropped" 1 (Sketch.count sk);
  check (Alcotest.float 0.) "single value is every quantile" 42. (Sketch.quantile sk 0.99);
  for i = 1 to 1000 do
    Sketch.add sk (float_of_int i)
  done;
  check cb "min" true (Sketch.min_value sk = 1.);
  check cb "max" true (Sketch.max_value sk = 1000.);
  check cb "q0 clamps to min" true (Sketch.quantile sk 0. = 1.);
  check cb "q1 clamps to max" true (Sketch.quantile sk 1. = 1000.);
  Alcotest.check_raises "q out of range" (Invalid_argument "Sketch.quantile: q outside [0, 1]")
    (fun () -> ignore (Sketch.quantile sk 1.5));
  Sketch.reset sk;
  check ci "reset empties" 0 (Sketch.count sk)

(* Regression: while [count <= capacity] every sample stays a singleton
   centroid, so quantiles must be exact order statistics.  The seed's
   weight limit jumped to 2 as soon as count exceeded capacity/2 —
   cap 8 with [0;0;10;10;10;10;10] answered q=1/6 with 2.5, not 0. *)
let test_sketch_exact_small () =
  let sk = Sketch.create ~capacity:8 () in
  List.iter (Sketch.add sk) [ 0.; 0.; 10.; 10.; 10.; 10.; 10. ];
  check (Alcotest.float 0.) "q=1/6 is the second-smallest sample" 0.
    (Sketch.quantile sk (1. /. 6.));
  check (Alcotest.float 0.) "q=0 exact min" 0. (Sketch.quantile sk 0.);
  check (Alcotest.float 0.) "q=1 exact max" 10. (Sketch.quantile sk 1.);
  (* every integer rank is exact below capacity (up to the float
     rounding in q * (n-1) itself) *)
  let sorted = [| 0.; 0.; 10.; 10.; 10.; 10.; 10. |] in
  Array.iteri
    (fun r v ->
      check (Alcotest.float 1e-9) (Printf.sprintf "rank %d exact" r) v
        (Sketch.quantile sk (float_of_int r /. 6.)))
    sorted

let prop_sketch_exact_under_capacity =
  QCheck.Test.make ~count:80 ~name:"sketch exact while count <= capacity"
    QCheck.(pair (int_range 8 64) (list_of_size Gen.(int_range 1 64) (int_bound 1_000)))
    (fun (cap, ints) ->
      QCheck.assume (List.length ints <= cap);
      let sk = Sketch.create ~capacity:cap () in
      List.iter (fun v -> Sketch.add sk (float_of_int v)) ints;
      let sorted = Array.of_list (List.map float_of_int (List.sort compare ints)) in
      let n = Array.length sorted in
      Array.iteri
        (fun r v ->
          let q = if n = 1 then 0.5 else float_of_int r /. float_of_int (n - 1) in
          let est = Sketch.quantile sk q in
          if Float.abs (est -. v) > 1e-6 then
            Alcotest.failf "n=%d cap=%d rank %d: est %g <> exact %g" n cap r est v)
        sorted;
      true)

let prop_sketch_rank_error =
  QCheck.Test.make ~count:60 ~name:"sketch quantiles within rank error bound"
    QCheck.(pair (list_of_size Gen.(int_range 1 800) (int_bound 10_000)) (int_range 8 96))
    (fun (ints, cap) ->
      let xs = Array.of_list (List.map float_of_int ints) in
      let sk = Sketch.create ~capacity:cap () in
      Array.iter (Sketch.add sk) xs;
      List.iter
        (fun q -> check_rank_bound ~msg:"add-only" xs sk q)
        [ 0.; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ];
      true)

let prop_sketch_merge =
  QCheck.Test.make ~count:40 ~name:"sketch merge summarizes the union"
    QCheck.(pair (list (int_bound 5_000)) (list (int_bound 5_000)))
    (fun (la, lb) ->
      let a = Sketch.create ~capacity:32 () in
      let b = Sketch.create ~capacity:64 () in
      List.iter (fun v -> Sketch.add a (float_of_int v)) la;
      List.iter (fun v -> Sketch.add b (float_of_int v)) lb;
      let m = Sketch.merge a b in
      check ci "merged count" (List.length la + List.length lb) (Sketch.count m);
      check ci "merged capacity" 64 (Sketch.capacity m);
      let union = Array.of_list (List.map float_of_int (la @ lb)) in
      if Array.length union > 0 then begin
        check cb "merged min" true (Sketch.min_value m = Array.fold_left min infinity union);
        check cb "merged max" true
          (Sketch.max_value m = Array.fold_left max neg_infinity union);
        List.iter (fun q -> check_rank_bound ~msg:"merged" union m q) [ 0.25; 0.5; 0.9 ]
      end;
      (* inputs unchanged *)
      check ci "a unchanged" (List.length la) (Sketch.count a);
      true)

(* ---- timeseries ---- *)

let test_timeseries_coarsening () =
  let ts = Timeseries.create ~capacity:8 () in
  let c_cum = Timeseries.add_column ts ~name:"events" Timeseries.Cum in
  let c_inst = Timeseries.add_column ts ~name:"rate" Timeseries.Inst in
  for i = 1 to 16 do
    let v = float_of_int i in
    let values = Array.make 2 nan in
    values.(c_cum) <- v;
    values.(c_inst) <- v;
    Timeseries.append ts ~ts_ns:(Int64.of_int i) ~ev:i ~label:"t" values
  done;
  check ci "bounded" 8 (Timeseries.length ts);
  check ci "coarsened once" 1 (Timeseries.coarsenings ts);
  let rows = Timeseries.rows ts in
  let cums = List.map (fun (r : Timeseries.row) -> r.r_values.(c_cum)) rows in
  let insts = List.map (fun (r : Timeseries.row) -> r.r_values.(c_inst)) rows in
  (* 16 appends into 8 slots: pairs (1,2)..(15,16) merged once.  Cum
     keeps the later value, Inst averages. *)
  check (Alcotest.list (Alcotest.float 0.)) "cum keeps later"
    [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16. ] cums;
  check (Alcotest.list (Alcotest.float 0.)) "inst averages"
    [ 1.5; 3.5; 5.5; 7.5; 9.5; 11.5; 13.5; 15.5 ] insts;
  (* timestamps/event indices keep the later of each merged pair *)
  (match Timeseries.last ts with
  | Some r -> check ci "last ev" 16 r.r_ev
  | None -> Alcotest.fail "no rows");
  (* a column registered late pads old rows with nan *)
  let c_new = Timeseries.add_column ts ~name:"late" Timeseries.Inst in
  let r0 = List.hd (Timeseries.rows ts) in
  check cb "late column reads nan in old rows" true (Float.is_nan r0.r_values.(c_new))

(* Regression: coarsening an odd number of slots keeps the trailing row
   (and its fill) as-is instead of dropping or double-counting it. *)
let test_timeseries_odd_coarsen () =
  let ts = Timeseries.create ~capacity:9 () in
  let c = Timeseries.add_column ts ~name:"v" Timeseries.Inst in
  for i = 1 to 10 do
    let values = Array.make 1 nan in
    values.(c) <- float_of_int i;
    Timeseries.append ts ~ts_ns:(Int64.of_int i) ~ev:i ~label:"" values
  done;
  (* 9 full slots coarsen on the 10th append: four pairs plus the odd
     ninth row, then the fresh sample opens a new slot. *)
  check ci "coarsened once" 1 (Timeseries.coarsenings ts);
  check ci "rows after odd coarsen" 6 (Timeseries.length ts);
  check (Alcotest.list ci) "fills: pairs, odd survivor, fresh tail"
    [ 2; 2; 2; 2; 1; 1 ] (Timeseries.fills ts);
  let vals =
    List.map (fun (r : Timeseries.row) -> r.r_values.(c)) (Timeseries.rows ts)
  in
  check (Alcotest.list (Alcotest.float 0.)) "odd row merged as itself"
    [ 1.5; 3.5; 5.5; 7.5; 9.; 10. ] vals

(* Regression: rows recorded before a column existed are narrower than
   the current schema; merging a missing (nan) cell with a recorded one
   must keep the recorded value, for both kinds. *)
let test_timeseries_ragged_columns () =
  let ts = Timeseries.create ~capacity:8 () in
  let a = Timeseries.add_column ts ~name:"a" Timeseries.Inst in
  for i = 1 to 3 do
    let values = Array.make 1 nan in
    values.(a) <- float_of_int i;
    Timeseries.append ts ~ts_ns:(Int64.of_int i) ~ev:i ~label:"" values
  done;
  let b = Timeseries.add_column ts ~name:"b" Timeseries.Cum in
  for i = 4 to 8 do
    let values = Array.make 2 nan in
    values.(a) <- float_of_int i;
    values.(b) <- float_of_int (10 * i);
    Timeseries.append ts ~ts_ns:(Int64.of_int i) ~ev:i ~label:"" values
  done;
  (* 9th append coarsens; the pair (3, 4) straddles the schema growth *)
  let values = Array.make 2 nan in
  values.(a) <- 9.;
  values.(b) <- 90.;
  Timeseries.append ts ~ts_ns:9L ~ev:9 ~label:"" values;
  check ci "coarsened once" 1 (Timeseries.coarsenings ts);
  let rows = Array.of_list (Timeseries.rows ts) in
  check ci "rows" 5 (Array.length rows);
  (* rows: (1,2) (3,4) (5,6) (7,8) (9) *)
  check cb "b nan before it existed" true (Float.is_nan rows.(0).r_values.(b));
  check (Alcotest.float 0.) "nan-merge keeps the recorded value" 40.
    rows.(1).r_values.(b);
  check (Alcotest.float 0.) "inst averages across the straddle" 3.5
    rows.(1).r_values.(a);
  check (Alcotest.float 0.) "cum keeps later across pair" 60. rows.(2).r_values.(b);
  check (Alcotest.float 0.) "inst still averages" 5.5 rows.(2).r_values.(a);
  check (Alcotest.float 0.) "fresh tail" 90. rows.(4).r_values.(b)

(* Coarsening conserves raw samples: however many times the ring halves,
   the fills sum to the append count and the fill-weighted mean of an
   Inst column equals the mean of everything ever appended. *)
let prop_timeseries_conservation =
  QCheck.Test.make ~count:60 ~name:"timeseries coarsening conserves samples"
    QCheck.(pair (int_range 8 24) (int_range 0 2_000))
    (fun (cap, n) ->
      let ts = Timeseries.create ~capacity:cap () in
      let c = Timeseries.add_column ts ~name:"x" Timeseries.Inst in
      for i = 1 to n do
        let values = Array.make 1 nan in
        values.(c) <- float_of_int i;
        Timeseries.append ts ~ts_ns:(Int64.of_int i) ~ev:i ~label:"" values
      done;
      let fills = Timeseries.fills ts in
      let rows = Timeseries.rows ts in
      let total = List.fold_left ( + ) 0 fills in
      if total <> n then Alcotest.failf "fills sum %d <> %d appends" total n;
      if Timeseries.length ts > cap then Alcotest.fail "ring exceeded capacity";
      let weighted =
        List.fold_left2
          (fun acc w (r : Timeseries.row) ->
            acc +. (float_of_int w *. r.r_values.(c)))
          0. fills rows
      in
      let exact = float_of_int (n * (n + 1)) /. 2. in
      if Float.abs (weighted -. exact) > 1e-6 *. Float.max 1. exact then
        Alcotest.failf "weighted sum %g <> exact %g (n=%d cap=%d)" weighted exact n cap;
      (* event indices stay strictly increasing oldest-first *)
      let evs = List.map (fun (r : Timeseries.row) -> r.r_ev) rows in
      if List.sort compare evs <> evs then Alcotest.fail "event order broken";
      true)

let test_timeseries_long_run_bounded () =
  let ts = Timeseries.create ~capacity:16 () in
  let c = Timeseries.add_column ts ~name:"n" Timeseries.Cum in
  for i = 1 to 10_000 do
    let values = [| 0. |] in
    values.(c) <- float_of_int i;
    Timeseries.append ts ~ts_ns:(Int64.of_int i) ~ev:i ~label:"" values
  done;
  check cb "still bounded after 10k appends" true (Timeseries.length ts <= 16);
  (match Timeseries.last ts with
  | Some r -> check (Alcotest.float 0.) "newest value survives" 10_000. r.r_values.(c)
  | None -> Alcotest.fail "no rows");
  check cb "coarsened repeatedly" true (Timeseries.coarsenings ts >= 9)

(* ---- recorder ---- *)

let test_recorder_tick_and_poll =
  with_rec (fun () ->
      let seen = ref [] in
      Recorder.configure ~capacity:32 ~interval_events:100
        ~wall_interval_ns:Int64.max_int
        ~on_sample:(fun s -> seen := s :: !seen)
        ();
      check cb "enabled after configure" true (Recorder.enabled ());
      check ci "configured cadence" 100 (Recorder.interval_events ());
      Metric.add (Metric.counter "rec.test_counter") 7;
      Metric.set (Metric.gauge "rec.test_gauge") 1.5;
      Recorder.tick ~label:"a" ~events:100 ();
      Metric.add (Metric.counter "rec.test_counter") 3;
      Recorder.tick ~label:"b" ~events:200 ();
      (* the wall interval is maxed out, so poll must record nothing *)
      Recorder.poll ~label:"p" ();
      let ts = match Recorder.timeseries () with Some ts -> ts | None -> Alcotest.fail "no ts" in
      check ci "two rows (poll suppressed)" 2 (Timeseries.length ts);
      check ci "on_sample fired per row" 2 (List.length !seen);
      let col name =
        match Timeseries.find_column ts name with
        | Some i -> i
        | None -> Alcotest.failf "missing column %s" name
      in
      let rows = Timeseries.rows ts in
      let r1 = List.nth rows 0 and r2 = List.nth rows 1 in
      check ci "row events" 100 r1.Timeseries.r_ev;
      check (Alcotest.string) "row label" "b" r2.r_label;
      check (Alcotest.float 0.) "counter column row1" 7. r1.r_values.(col "rec.test_counter");
      check (Alcotest.float 0.) "counter column row2" 10. r2.r_values.(col "rec.test_counter");
      check (Alcotest.float 0.) "gauge column" 1.5 r2.r_values.(col "rec.test_gauge");
      (* disabled: entry points are inert, timeline stays readable *)
      Recorder.disable ();
      Recorder.tick ~label:"dead" ();
      check ci "tick after disable records nothing" 2 (Timeseries.length ts);
      (* a tiny wall interval lets poll record *)
      Recorder.configure ~capacity:32 ~interval_events:100 ~wall_interval_ns:1L ();
      Recorder.poll ~label:"p" ();
      let ts = match Recorder.timeseries () with Some ts -> ts | None -> Alcotest.fail "no ts" in
      check ci "poll records once elapsed" 1 (Timeseries.length ts))

let test_recorder_histogram_columns =
  with_rec (fun () ->
      Recorder.configure ~capacity:16 ~wall_interval_ns:Int64.max_int ();
      let h = Metric.histogram ~lo:0. ~hi:100. ~buckets:10 "rec.lat" in
      for i = 1 to 100 do
        Metric.observe h (float_of_int i)
      done;
      Recorder.tick ~events:1 ();
      let ts = match Recorder.timeseries () with Some ts -> ts | None -> Alcotest.fail "no ts" in
      let r = match Timeseries.last ts with Some r -> r | None -> Alcotest.fail "no row" in
      let get name =
        match Timeseries.find_column ts name with
        | Some i -> r.Timeseries.r_values.(i)
        | None -> Alcotest.failf "missing column %s" name
      in
      check (Alcotest.float 0.) "count column" 100. (get "rec.lat.count");
      let p50 = get "rec.lat.p50" in
      check cb "p50 near median" true (p50 >= 40. && p50 <= 60.);
      let p99 = get "rec.lat.p99" in
      check cb "p99 near tail" true (p99 >= 90. && p99 <= 100.))

(* ---- exporters ---- *)

(* OpenMetrics text: every line up to the terminating "# EOF" is either
   a comment or `name[{quantile="q"}] value` with a float value and a
   sanitized name. *)
let check_openmetrics_wellformed om =
  let lines = String.split_on_char '\n' om in
  let rec last_nonempty = function
    | [] -> ""
    | [ x ] -> x
    | "" :: rest -> last_nonempty rest
    | x :: rest -> ( match last_nonempty rest with "" -> x | y -> y)
  in
  check (Alcotest.string) "terminator" "# EOF" (last_nonempty lines);
  List.iter
    (fun line ->
      if line <> "" && not (String.length line >= 1 && line.[0] = '#') then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed line: %s" line
        | Some sp ->
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          (match float_of_string_opt value with
          | Some _ -> ()
          | None -> Alcotest.failf "unparseable value in: %s" line);
          let name =
            match String.index_opt line '{' with
            | Some b -> String.sub line 0 b
            | None -> String.sub line 0 sp
          in
          String.iter
            (fun c ->
              let ok =
                (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                || (c >= '0' && c <= '9')
                || c = '_' || c = ':'
              in
              if not ok then Alcotest.failf "unsanitized name in: %s" line)
            name
      end)
    lines

let check_csv_wellformed csv =
  match String.split_on_char '\n' (String.trim csv) with
  | [] -> Alcotest.fail "empty csv"
  | header :: rows ->
    let width = List.length (String.split_on_char ',' header) in
    check cb "csv has header" true (width >= 3);
    List.iter
      (fun row ->
        if row <> "" then
          check ci "csv row width" width (List.length (String.split_on_char ',' row)))
      rows

let test_openmetrics_golden =
  with_rec (fun () ->
      Metric.add (Metric.counter "golden.events") 42;
      Metric.incr (Metric.counter "golden.errors!total");
      Metric.set (Metric.gauge "golden.queue-depth") 3.5;
      let h = Metric.histogram ~lo:0. ~hi:100. ~buckets:10 "golden.latency_ms" in
      for i = 1 to 100 do
        Metric.observe h (float_of_int i)
      done;
      let got = Export.openmetrics () in
      let ic = open_in "golden_openmetrics.expected" in
      let n = in_channel_length ic in
      let expected = really_input_string ic n in
      close_in ic;
      check (Alcotest.string) "openmetrics golden" expected got)

let test_timeline_exports =
  with_rec (fun () ->
      Recorder.configure ~capacity:16 ~wall_interval_ns:Int64.max_int ();
      Metric.add (Metric.counter "tl.n") 1;
      Recorder.tick ~label:"with,comma" ~events:10 ();
      Metric.add (Metric.counter "tl.n") 1;
      Recorder.tick ~events:20 ();
      let csv = Export.timeline_csv () in
      check_csv_wellformed csv;
      (* The label's comma must be escaped: a naive comma-split of any
         row yields exactly the header's field count. *)
      let lines = String.split_on_char '\n' (String.trim csv) in
      let width = List.length (String.split_on_char ',' (List.hd lines)) in
      check cb "label comma escaped" true
        (not (List.exists (fun l -> List.length (String.split_on_char ',' l) > width) lines));
      let json = Export.timeline_json () in
      let mentions sub str =
        let n = String.length str and m = String.length sub in
        let rec go i = i + m <= n && (String.sub str i m = sub || go (i + 1)) in
        go 0
      in
      check cb "json mentions columns" true (mentions "\"columns\"" json))

(* 4 domains hammer the registry while the main domain exports; the
   exports must stay well-formed throughout, and the final quantiles
   must satisfy the sketch bound over everything emitted. *)
let prop_concurrent_export =
  QCheck.Test.make ~count:10 ~name:"exports well-formed under 4-domain emission"
    QCheck.(list_of_size Gen.(int_range 64 256) (int_bound 1_000))
    (fun ints ->
      Control.set true;
      Metric.reset ();
      Fun.protect
        ~finally:(fun () ->
          Recorder.disable ();
          Metric.reset ();
          Control.set false)
        (fun () ->
          Recorder.configure ~capacity:32 ~wall_interval_ns:Int64.max_int ();
          let xs = Array.of_list (List.map float_of_int ints) in
          let domains =
            Array.init 4 (fun d ->
                Domain.spawn (fun () ->
                    let h = Metric.histogram ~lo:0. ~hi:1000. ~buckets:16 "conc.lat" in
                    let c = Metric.counter "conc.n" in
                    Array.iter
                      (fun x ->
                        Metric.observe h x;
                        Metric.incr c)
                      xs;
                    ignore d))
          in
          (* export (and tick) while the domains are emitting *)
          for i = 1 to 5 do
            Recorder.tick ~events:i ();
            check_openmetrics_wellformed (Export.openmetrics ());
            check_csv_wellformed (Export.timeline_csv ())
          done;
          Array.iter Domain.join domains;
          Recorder.tick ~events:99 ();
          check_openmetrics_wellformed (Export.openmetrics ());
          check_csv_wellformed (Export.timeline_csv ());
          let snap = Metric.snapshot () in
          check ci "all increments landed" (4 * Array.length xs)
            (List.assoc "conc.n" snap.Metric.counters);
          let h = Metric.histogram "conc.lat" in
          let all = Array.concat [ xs; xs; xs; xs ] in
          check ci "all observations landed" (Array.length all)
            (Sketch.count (Metric.sketch h));
          List.iter
            (fun q -> check_rank_bound ~msg:"concurrent" all (Metric.sketch h) q)
            [ 0.5; 0.95; 0.99 ];
          true))

(* ---- executor integration: streamed = materialized timelines ---- *)

(* Event-derived timeline values must be identical between a fan-out
   of one over the whole packed trace as one segment and over small
   segments, at every event-cadence tick.  (Wall-clock poll rows are suppressed via a huge interval;
   wall-derived columns like segment throughput are excluded.) *)
let event_columns =
  [ "executor.live_objects"; "executor.heap_live_bytes"; "executor.cache_hit_rate";
    "executor.region_peak_bytes"; "executor.recoveries"; "executor.alloc_bytes.count";
    "executor.alloc_bytes.p50"; "executor.alloc_bytes.p95"; "executor.alloc_bytes.p99" ]

let recorder_rows_of run =
  Metric.reset ();
  Recorder.configure ~capacity:4096 ~interval_events:10_000
    ~wall_interval_ns:Int64.max_int ();
  ignore (run ());
  Recorder.disable ();
  let ts = match Recorder.timeseries () with Some ts -> ts | None -> Alcotest.fail "no ts" in
  List.map
    (fun (r : Timeseries.row) ->
      ( r.r_ev,
        List.map
          (fun name ->
            match Timeseries.find_column ts name with
            | Some i ->
              let v = r.r_values.(i) in
              if Float.is_nan v then "nan" else Printf.sprintf "%.17g" v
            | None -> "absent")
          event_columns ))
    (Timeseries.rows ts)

let test_stream_timeline_matches_packed =
  with_rec (fun () ->
      let wl = Prefix_workloads.Registry.find "mcf" in
      let trace = wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      let packed = Prefix_trace.Packed.of_trace trace in
      let costs = Prefix_runtime.Executor.default_config.costs in
      let policy heap = Prefix_runtime.Policy.baseline costs heap in
      let rows_packed =
        recorder_rows_of (fun () -> Replay.one ~policy (Replay.whole packed))
      in
      let rows_streamed =
        recorder_rows_of (fun () ->
            Prefix_runtime.Executor.run_stream_many ~policies:[ policy ]
              (Prefix_trace.Stream.of_packed ~segment_events:7_777 packed))
      in
      check ci "same number of samples" (List.length rows_packed)
        (List.length rows_streamed);
      check cb "several samples recorded" true (List.length rows_packed >= 3);
      List.iter2
        (fun (ev_p, vs_p) (ev_s, vs_s) ->
          check ci "tick at same event index" ev_p ev_s;
          List.iter2 (check (Alcotest.string) "event-derived value") vs_p vs_s)
        rows_packed rows_streamed)

let suite =
  [ ( "telemetry",
      [ Alcotest.test_case "clock monotonic 10k" `Quick test_clock_monotonic;
        Alcotest.test_case "clock monotonic across domains" `Quick
          test_clock_monotonic_domains;
        Alcotest.test_case "sketch basics" `Quick test_sketch_basics;
        Alcotest.test_case "sketch exact at small counts" `Quick test_sketch_exact_small;
        QCheck_alcotest.to_alcotest prop_sketch_exact_under_capacity;
        QCheck_alcotest.to_alcotest prop_sketch_rank_error;
        QCheck_alcotest.to_alcotest prop_sketch_merge;
        Alcotest.test_case "timeseries odd-slot coarsen" `Quick test_timeseries_odd_coarsen;
        Alcotest.test_case "timeseries ragged columns" `Quick test_timeseries_ragged_columns;
        QCheck_alcotest.to_alcotest prop_timeseries_conservation;
        Alcotest.test_case "timeseries coarsening semantics" `Quick
          test_timeseries_coarsening;
        Alcotest.test_case "timeseries bounded over 10k appends" `Quick
          test_timeseries_long_run_bounded;
        Alcotest.test_case "recorder tick/poll" `Quick test_recorder_tick_and_poll;
        Alcotest.test_case "recorder histogram columns" `Quick
          test_recorder_histogram_columns;
        Alcotest.test_case "openmetrics golden file" `Quick test_openmetrics_golden;
        Alcotest.test_case "timeline csv/json exports" `Quick test_timeline_exports;
        QCheck_alcotest.to_alcotest prop_concurrent_export;
        Alcotest.test_case "streamed timeline = materialized" `Quick
          test_stream_timeline_matches_packed ] ) ]
