module Tablefmt = Prefix_util.Tablefmt

(* ---- span aggregation ---- *)

type agg = {
  mutable count : int;
  mutable total_ns : int64;
  mutable max_ns : int64;
}

let aggregate spans =
  let tbl : (string * string, agg) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : Span.completed) ->
      let key = (s.cat, s.name) in
      let a =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
          let a = { count = 0; total_ns = 0L; max_ns = 0L } in
          Hashtbl.replace tbl key a;
          order := key :: !order;
          a
      in
      a.count <- a.count + 1;
      a.total_ns <- Int64.add a.total_ns s.dur_ns;
      if s.dur_ns > a.max_ns then a.max_ns <- s.dur_ns)
    spans;
  List.rev_map (fun key -> (key, Hashtbl.find tbl key)) !order

let span_report () =
  match Span.completed () with
  | [] -> "no spans recorded (is observability enabled?)\n"
  | spans ->
    let rows =
      aggregate spans
      |> List.sort (fun (_, a) (_, b) -> compare b.total_ns a.total_ns)
    in
    let t =
      Tablefmt.create ~headers:[ "span"; "cat"; "count"; "total ms"; "mean us"; "max us" ]
    in
    List.iter
      (fun (((cat : string), name), a) ->
        Tablefmt.add_row t
          [ name;
            cat;
            string_of_int a.count;
            Printf.sprintf "%.3f" (Clock.ms_of_ns a.total_ns);
            Printf.sprintf "%.1f"
              (Clock.us_of_ns a.total_ns /. float_of_int (max 1 a.count));
            Printf.sprintf "%.1f" (Clock.us_of_ns a.max_ns) ])
      rows;
    "== span timings ==\n" ^ Tablefmt.render t

let spark counts =
  let glyphs = [| " "; "."; ":"; "-"; "="; "#" |] in
  let hi = Array.fold_left max 1 counts in
  String.concat ""
    (Array.to_list
       (Array.map
          (fun c ->
            if c = 0 then glyphs.(0)
            else glyphs.(1 + (c * (Array.length glyphs - 2) / hi)))
          counts))

let metrics_report () =
  let snap = Metric.snapshot () in
  let b = Buffer.create 1024 in
  if snap.counters <> [] then begin
    Buffer.add_string b "== counters ==\n";
    let t = Tablefmt.create ~headers:[ "counter"; "value" ] in
    List.iter
      (fun (name, v) -> Tablefmt.add_row t [ name; Tablefmt.fmt_int v ])
      snap.counters;
    Buffer.add_string b (Tablefmt.render t)
  end;
  if snap.gauges <> [] then begin
    Buffer.add_string b "== gauges ==\n";
    let t = Tablefmt.create ~headers:[ "gauge"; "value" ] in
    List.iter
      (fun (name, v) -> Tablefmt.add_row t [ name; Printf.sprintf "%.1f" v ])
      snap.gauges;
    Buffer.add_string b (Tablefmt.render t)
  end;
  if snap.histograms <> [] then begin
    Buffer.add_string b "== histograms ==\n";
    List.iter
      (fun (name, (h : Metric.hist_view)) ->
        let qs =
          String.concat ""
            (List.map
               (fun (q, est) -> Printf.sprintf " p%g=%.1f" (100. *. q) est)
               h.h_quantiles)
        in
        Buffer.add_string b
          (Printf.sprintf "%-28s [%s] n=%d underflow=%d overflow=%d%s\n" name
             (spark h.h_counts) h.h_total h.h_underflow h.h_overflow qs))
      snap.histograms
  end;
  if Buffer.length b = 0 then "no metrics recorded\n" else Buffer.contents b

let report () = span_report () ^ "\n" ^ metrics_report ()

(* ---- JSON ---- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ escape s ^ "\""
let jnum f = Printf.sprintf "%.3f" f
let jobj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let jarr items = "[" ^ String.concat "," items ^ "]"

(* ---- OpenMetrics / Prometheus text exposition ---- *)

(* Metric names here use dots (executor.llc_misses); the exposition
   format only allows [a-zA-Z0-9_:], so anything else maps to '_'. *)
let om_name s =
  String.init (String.length s) (fun i ->
      match s.[i] with
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
      | _ -> '_')

let om_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.6g" v

let openmetrics () =
  let snap = Metric.snapshot () in
  let b = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" n v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (om_float v)))
    snap.gauges;
  (* Histograms expose as summaries: the quantiles come from the
     attached sketch, so no per-sample storage backs them. *)
  List.iter
    (fun (name, (h : Metric.hist_view)) ->
      let n = om_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, est) ->
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"%g\"} %s\n" n q (om_float est)))
        h.h_quantiles;
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (om_float h.h_sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.h_total))
    snap.histograms;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---- flight-recorder timeline dumps ---- *)

let timeline_base_ns ts =
  match Timeseries.rows ts with
  | [] -> 0L
  | r :: _ -> r.Timeseries.r_ts_ns

let timeline_csv () =
  match Recorder.timeseries () with
  | None -> "t_ms,events,label\n"
  | Some ts ->
    let cols = Timeseries.columns ts in
    let b = Buffer.create 4096 in
    Buffer.add_string b "t_ms,events,label";
    Array.iter (fun (name, _) -> Buffer.add_string b ("," ^ name)) cols;
    Buffer.add_char b '\n';
    let t0 = timeline_base_ns ts in
    List.iter
      (fun (r : Timeseries.row) ->
        Buffer.add_string b
          (Printf.sprintf "%.3f,%d,%s"
             (Clock.ms_of_ns (Int64.sub r.r_ts_ns t0))
             r.r_ev
             (String.map (fun c -> if c = ',' then ';' else c) r.r_label));
        Array.iter
          (fun v ->
            Buffer.add_char b ',';
            if not (Float.is_nan v) then Buffer.add_string b (om_float v))
          r.r_values;
        Buffer.add_char b '\n')
      (Timeseries.rows ts);
    Buffer.contents b

let timeline_json () =
  match Recorder.timeseries () with
  | None -> jobj [ ("columns", jarr []); ("rows", jarr []) ]
  | Some ts ->
    let cols = Timeseries.columns ts in
    let t0 = timeline_base_ns ts in
    jobj
      [ ( "columns",
          jarr
            (Array.to_list
               (Array.map
                  (fun (name, kind) ->
                    jobj
                      [ ("name", jstr name);
                        ( "kind",
                          jstr
                            (match kind with
                            | Timeseries.Cum -> "cum"
                            | Timeseries.Inst -> "inst") ) ])
                  cols)) );
        ("coarsenings", string_of_int (Timeseries.coarsenings ts));
        ( "rows",
          jarr
            (List.map
               (fun (r : Timeseries.row) ->
                 jobj
                   [ ("t_ms", jnum (Clock.ms_of_ns (Int64.sub r.r_ts_ns t0)));
                     ("events", string_of_int r.r_ev);
                     ("label", jstr r.r_label);
                     ( "values",
                       jarr
                         (Array.to_list
                            (Array.map
                               (fun v ->
                                 if Float.is_nan v then "null" else jnum v)
                               r.r_values)) ) ])
               (Timeseries.rows ts)) ) ]

(* ---- Chrome trace-event format ---- *)

let chrome_trace () =
  let meta =
    jobj
      [ ("name", jstr "process_name");
        ("ph", jstr "M");
        ("pid", "1");
        ("args", jobj [ ("name", jstr "prefix") ]) ]
  in
  let span_event (s : Span.completed) =
    jobj
      [ ("name", jstr s.name);
        ("cat", jstr (if s.cat = "" then "prefix" else s.cat));
        ("ph", jstr "X");
        ("ts", jnum (Clock.us_of_ns s.start_ns));
        ("dur", jnum (Clock.us_of_ns s.dur_ns));
        ("pid", "1");
        ("tid", string_of_int s.tid);
        ("args", jobj (List.map (fun (k, v) -> (k, jstr v)) s.args)) ]
  in
  (* Flight-recorder rows become per-column counter tracks, so the
     Perfetto timeline shows every recorded series (events/s, live
     objects, quantiles, ...) under the replay spans.  The recorder's
     ring is bounded, so this adds at most capacity x columns events. *)
  let recorder_events =
    match Recorder.timeseries () with
    | None -> []
    | Some ts ->
      let cols = Timeseries.columns ts in
      List.concat_map
        (fun (r : Timeseries.row) ->
          List.filter_map
            (fun i ->
              let v = r.Timeseries.r_values.(i) in
              if Float.is_nan v then None
              else
                let name, _ = cols.(i) in
                Some
                  (jobj
                     [ ("name", jstr name);
                       ("ph", jstr "C");
                       ("ts", jnum (Clock.us_of_ns r.r_ts_ns));
                       ("pid", "1");
                       ("tid", "0");
                       ("args", jobj [ ("value", jnum v) ]) ]))
            (List.init (Array.length cols) Fun.id))
        (Timeseries.rows ts)
  in
  let events = (meta :: List.map span_event (Span.completed ())) @ recorder_events in
  jobj [ ("traceEvents", jarr events); ("displayTimeUnit", jstr "ms") ]
