(* Tests for Prefix_obs: span nesting invariants, metric registry
   semantics, exporter well-formedness, and the pipeline/executor
   wiring (span names the `stats` subcommand relies on). *)

module Control = Prefix_obs.Control
module Span = Prefix_obs.Span
module Metric = Prefix_obs.Metric
module Export = Prefix_obs.Export

let check = Alcotest.check
let ci = Alcotest.int

(* Every test runs against the process-global sink; serialise through a
   fixture that starts from a clean, enabled state and always disables
   collection afterwards so unrelated suites stay unobserved. *)
let with_obs f () =
  Control.set true;
  Span.reset ();
  Metric.reset ();
  Fun.protect ~finally:(fun () -> Control.set false) f

(* ---- minimal JSON parser (no JSON library in the image) ----
   Just enough to check that exporters emit parseable JSON: objects,
   arrays, strings with escapes, numbers, true/false/null. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then begin advance (); skip_ws () end
  in
  let expect c = if peek () <> c then fail (Printf.sprintf "expected %c" c) else advance () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> Buffer.add_char b (Char.chr (code land 0xff))
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); Arr [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); items (v :: acc)
          | ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | '"' -> Str (parse_string ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && num_char s.[!pos] do advance () done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* ---- spans ---- *)

let test_span_disabled () =
  Control.set false;
  Span.reset ();
  check ci "body still runs" 42 (Span.with_ "off" (fun () -> 42));
  check ci "nothing recorded" 0 (List.length (Span.completed ()))

let test_span_nesting =
  with_obs (fun () ->
      let r =
        Span.with_ "parent" (fun () ->
            let a = Span.with_ "child-a" (fun () -> 1) in
            let b = Span.with_ "child-b" (fun () -> 2) in
            a + b)
      in
      check ci "value" 3 r;
      match Span.completed () with
      | [ a; b; p ] ->
        check Alcotest.string "a first" "child-a" a.Span.name;
        check Alcotest.string "b second" "child-b" b.Span.name;
        check Alcotest.string "parent closes last" "parent" p.Span.name;
        check ci "root depth" 0 p.Span.depth;
        check ci "child depth" 1 a.Span.depth;
        Alcotest.(check (option string)) "a's parent" (Some "parent") a.Span.parent;
        Alcotest.(check (option string)) "root has no parent" None p.Span.parent;
        Alcotest.(check bool) "durations non-negative" true
          (List.for_all (fun (s : Span.completed) -> s.dur_ns >= 0L) [ a; b; p ]);
        (* Children are contained in the parent's interval. *)
        let ends (s : Span.completed) = Int64.add s.start_ns s.dur_ns in
        Alcotest.(check bool) "a within parent" true
          (a.start_ns >= p.start_ns && ends a <= ends p);
        Alcotest.(check bool) "b after a" true (b.start_ns >= ends a)
      | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l))

let test_span_exception =
  with_obs (fun () ->
      (try Span.with_ "raises" (fun () -> failwith "boom") with Failure _ -> ());
      check ci "span recorded despite exception" 1 (List.length (Span.completed ()));
      check ci "stack popped" 0 (Span.open_count ()))

(* qcheck: run an arbitrary nesting script and verify the completed
   records always form a well-formed forest. *)
let rec exec_script depth = function
  | [] -> ()
  | go_deeper :: rest ->
    if go_deeper && depth < 6 then
      Span.with_ (Printf.sprintf "d%d" depth) (fun () -> exec_script (depth + 1) rest)
    else begin
      Span.with_ (Printf.sprintf "leaf%d" depth) (fun () -> ());
      exec_script depth rest
    end

let prop_span_forest_well_formed =
  QCheck.Test.make ~name:"interleaved spans form a well-formed forest" ~count:100
    QCheck.(small_list bool)
    (fun script ->
      Control.set true;
      Span.reset ();
      Fun.protect ~finally:(fun () -> Control.set false) @@ fun () ->
      exec_script 0 script;
      let spans = Span.completed () in
      let ends (s : Span.completed) = Int64.add s.start_ns s.dur_ns in
      (* Replaying completion order against a stack must be consistent:
         each completed span's children (deeper spans completed since
         the last same-or-shallower depth) closed before it. *)
      Span.open_count () = 0
      && List.for_all (fun (s : Span.completed) -> s.dur_ns >= 0L) spans
      && List.for_all
           (fun (s : Span.completed) ->
             match s.parent with
             | None -> s.depth = 0
             | Some pname -> (
               (* the parent completes later and contains the child *)
               match
                 List.find_opt
                   (fun (p : Span.completed) ->
                     p.Span.name = pname
                     && p.depth = s.depth - 1
                     && p.start_ns <= s.start_ns
                     && ends p >= ends s)
                   spans
               with
               | Some _ -> true
               | None -> false))
           spans)

(* ---- metrics ---- *)

let test_metric_counter =
  with_obs (fun () ->
      let a = Metric.counter "test.c" in
      let b = Metric.counter "test.c" in
      Metric.incr a;
      Metric.add b 4;
      let snap = Metric.snapshot () in
      check ci "same name, same cell" 5 (List.assoc "test.c" snap.counters))

let test_metric_gauge =
  with_obs (fun () ->
      let g = Metric.gauge "test.g" in
      Metric.set g 2.5;
      Metric.set_max g 1.0;
      check (Alcotest.float 1e-9) "set_max keeps max" 2.5
        (List.assoc "test.g" (Metric.snapshot ()).gauges);
      Metric.set_max g 7.0;
      check (Alcotest.float 1e-9) "set_max raises" 7.0
        (List.assoc "test.g" (Metric.snapshot ()).gauges))

let test_metric_histogram =
  with_obs (fun () ->
      let h = Metric.histogram ~lo:0. ~hi:10. ~buckets:5 "test.h" in
      List.iter (Metric.observe h) [ 1.; 5.; -1.; 99. ];
      let v = List.assoc "test.h" (Metric.snapshot ()).histograms in
      check ci "total" 4 v.Metric.h_total;
      check ci "underflow" 1 v.Metric.h_underflow;
      check ci "overflow" 1 v.Metric.h_overflow;
      check ci "in-range" 2 (Array.fold_left ( + ) 0 v.Metric.h_counts))

let test_metric_disabled =
  with_obs (fun () ->
      let c = Metric.counter "test.off" in
      Control.set false;
      Metric.incr c;
      Metric.add c 10;
      Control.set true;
      check ci "updates while off are dropped" 0
        (List.assoc "test.off" (Metric.snapshot ()).counters))

(* ---- exporters ---- *)

let record_sample_run () =
  Span.with_ ~cat:"t" ~args:[ ("k", "v\"with\\quotes") ] "outer" (fun () ->
      Span.with_ ~cat:"t" "inner" (fun () -> ()))

let test_chrome_trace_valid =
  with_obs (fun () ->
      record_sample_run ();
      let j = parse_json (Export.chrome_trace ()) in
      match member "traceEvents" j with
      | Some (Arr events) ->
        check Alcotest.bool "has events" true (List.length events >= 3);
        let names = ref [] in
        List.iter
          (fun e ->
            (match member "name" e with
            | Some (Str s) -> names := s :: !names
            | _ -> Alcotest.fail "event without name");
            match member "ph" e with
            | Some (Str "X") ->
              (match (member "ts" e, member "dur" e) with
              | Some (Num _), Some (Num d) ->
                Alcotest.(check bool) "dur >= 0" true (d >= 0.)
              | _ -> Alcotest.fail "X event missing ts/dur")
            | Some (Str "C") ->
              (match member "args" e with
              | Some (Obj (_ :: _)) -> ()
              | _ -> Alcotest.fail "C event without args")
            | Some (Str "M") -> ()
            | _ -> Alcotest.fail "unexpected phase")
          events;
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " present") true (List.mem n !names))
          [ "outer"; "inner" ]
      | _ -> Alcotest.fail "no traceEvents array")

let test_text_report =
  with_obs (fun () ->
      record_sample_run ();
      Metric.incr (Metric.counter "test.report");
      let r = Export.report () in
      let mentions sub =
        let n = String.length r and m = String.length sub in
        let rec go i = i + m <= n && (String.sub r i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions span" true (mentions "outer");
      Alcotest.(check bool) "mentions counter" true (mentions "test.report"))

(* ---- wiring: pipeline stages and executor replay ---- *)

let test_pipeline_and_executor_spans =
  with_obs (fun () ->
      let wl = Prefix_workloads.Registry.find "mcf" in
      let trace = wl.generate ~scale:Profiling ~seed:7 () in
      let plan = Prefix_core.Pipeline.plan ~variant:Prefix_core.Plan.HdsHot trace in
      let costs = Prefix_runtime.Executor.default_config.costs in
      let _ =
        Prefix_runtime.Executor.run
          ~policy:(fun heap ->
            Prefix_runtime.Prefix_policy.policy costs heap plan
              Prefix_runtime.Policy.no_classification)
          trace
      in
      let names = List.map (fun (s : Span.completed) -> s.Span.name) (Span.completed ()) in
      List.iter
        (fun stage ->
          Alcotest.(check bool) ("stage span " ^ stage) true (List.mem stage names))
        [ "trace-analysis"; "hot-selection"; "hds-detection"; "reconstitution";
          "offset-assignment"; "plan"; "pipeline"; "replay:PreFix:HDS+Hot" ];
      (* the executor also feeds the metrics registry *)
      let snap = Metric.snapshot () in
      check ci "events replayed counted"
        (Prefix_trace.Trace.length trace)
        (List.assoc "executor.events_replayed" snap.counters);
      Alcotest.(check bool) "heap peak gauge set" true
        (List.assoc "executor.heap_peak_bytes" snap.gauges > 0.))

let test_zero_overhead_off () =
  Control.set false;
  Span.reset ();
  Metric.reset ();
  let wl = Prefix_workloads.Registry.find "mcf" in
  let trace = wl.generate ~scale:Profiling ~seed:7 () in
  let _ = Prefix_core.Pipeline.plan ~variant:Prefix_core.Plan.Hot trace in
  let _ = Prefix_runtime.Executor.run_baseline trace in
  check ci "no spans when off" 0 (List.length (Span.completed ()));
  let snap = Metric.snapshot () in
  Alcotest.(check bool) "no metric mass when off" true
    (List.for_all (fun (_, v) -> v = 0) snap.counters)

let suite =
  [ ( "obs",
      [ Alcotest.test_case "span disabled" `Quick test_span_disabled;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span exception safety" `Quick test_span_exception;
        QCheck_alcotest.to_alcotest prop_span_forest_well_formed;
        Alcotest.test_case "counter semantics" `Quick test_metric_counter;
        Alcotest.test_case "gauge semantics" `Quick test_metric_gauge;
        Alcotest.test_case "histogram semantics" `Quick test_metric_histogram;
        Alcotest.test_case "disabled metrics drop updates" `Quick test_metric_disabled;
        Alcotest.test_case "chrome trace parses" `Quick test_chrome_trace_valid;
        Alcotest.test_case "text report" `Quick test_text_report;
        Alcotest.test_case "pipeline+executor wiring" `Quick test_pipeline_and_executor_spans;
        Alcotest.test_case "zero overhead when off" `Quick test_zero_overhead_off ] ) ]
