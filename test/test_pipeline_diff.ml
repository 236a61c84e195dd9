(* Differential tests of the planner against the reference copy in
   ref_pipeline.ml: on generated profiles and on every benchmark's
   profile, [Pipeline.plan_with_stats] must return a [Plan.t] equal to
   the reference's — same slots, counters, placements, recycling blocks
   and profile summary — for every variant, slot mode and planner
   switch. *)

module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Detector = Prefix_hds.Detector
module Event = Prefix_trace.Event
module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Rng = Prefix_util.Rng
module Registry = Prefix_workloads.Registry
module Workload = Prefix_workloads.Workload

(* ---- generated profiles ---------------------------------------------- *)

(* A profile mixing the site kinds the planner treats differently:
   - tandem sites 1-3, each allocating one hot object per round, whose
     combined ids only share a counter as a consecutive run;
   - an all-hot site (10) that site promotion turns into an "all ids"
     site;
   - churning sites 20 and 21 (few live at a time, many allocations),
     which recycle;
   - cold sites 30 and 31 holding most of the objects;
   - a site (40) whose hot objects all carry one of its two call-stack
     signatures (the hybrid mechanism);
   - a site (50) whose every other allocation is hot (a regular
     pattern);
   - reallocs of hot objects.
   Hot objects are visited in a few fixed orders, so HDS detection finds
   streams.  With [reuse], some allocations reuse live or freed ids, one
   object is freed twice, and unknown ids are accessed, freed and
   reallocated. *)
let profile ~seed ~objects ~reuse =
  let rng = Rng.create seed in
  let tr = Trace.create () in
  let emit e = Trace.add tr e in
  let next = ref 0 in
  let used = ref [] in
  let alloc ~site ?(ctx = site) size =
    let obj =
      if reuse && !used <> [] && Rng.int rng 40 = 0 then Rng.choose rng (Array.of_list !used)
      else begin
        incr next;
        !next
      end
    in
    used := obj :: !used;
    emit (Event.Alloc { obj; site; ctx; size; thread = 0 });
    obj
  in
  let access obj = emit (Event.Access { obj; offset = 0; write = Rng.bool rng; thread = 0 }) in
  let touch obj k =
    for _ = 1 to k do
      access obj
    done
  in
  let free obj = emit (Event.Free { obj; thread = 0 }) in
  let size () = 8 * (1 + Rng.int rng 40) in
  let budget = max 20 objects in
  let hot = ref [] in
  let keep o = hot := o :: !hot in
  (* Tandem sites: the first round is hot, later rounds cold. *)
  let rounds = 1 + Rng.int rng 4 in
  for r = 1 to rounds do
    List.iter
      (fun site ->
        let o = alloc ~site (size ()) in
        if r = 1 then keep o else touch o (Rng.int rng 2))
      [ 1; 2; 3 ]
  done;
  (* All-hot site. *)
  for _ = 1 to 8 + Rng.int rng 12 do
    keep (alloc ~site:10 (size ()))
  done;
  (* Hybrid site: signature 41 hot, 42 cold. *)
  for _ = 1 to 2 + Rng.int rng 6 do
    let ctx = if Rng.bool rng then 41 else 42 in
    let o = alloc ~site:40 ~ctx (size ()) in
    if ctx = 41 then keep o
  done;
  (* Strided site. *)
  for i = 1 to 6 + Rng.int rng 10 do
    let o = alloc ~site:50 (size ()) in
    if i mod 2 = 1 then keep o
  done;
  let hot = Array.of_list (List.rev !hot) in
  let orders =
    Array.init 3 (fun _ ->
        let a = Array.copy hot in
        Rng.shuffle rng a;
        Array.sub a 0 (max 2 (Array.length a / 2)))
  in
  (* Churn: [live] objects at a time from sites 20/21. *)
  let live = Queue.create () in
  let cap = 2 + Rng.int rng 3 in
  let churn () =
    if Queue.length live >= cap then free (Queue.pop live);
    let o = alloc ~site:(if Rng.int rng 3 = 0 then 21 else 20) (size ()) in
    touch o (4 + Rng.int rng 3);
    Queue.push o live
  in
  (* Cold objects, most of the budget. *)
  let cold () =
    let o = alloc ~site:(30 + Rng.int rng 2) (size ()) in
    touch o (Rng.int rng 3);
    if Rng.int rng 3 = 0 then free o
  in
  let churns = budget / 4 and colds = budget / 2 in
  let rounds = 40 + Rng.int rng 80 in
  for r = 1 to rounds do
    Array.iter
      (fun o -> if Rng.int rng 12 <> 0 then access o)
      orders.(Rng.int rng (Array.length orders));
    if Rng.int rng 4 = 0 then access (Rng.choose rng hot);
    for _ = 1 to (churns / rounds) + if r <= churns mod rounds then 1 else 0 do
      churn ()
    done;
    for _ = 1 to (colds / rounds) + if r <= colds mod rounds then 1 else 0 do
      cold ()
    done;
    if r mod 17 = 0 then begin
      let o = Rng.choose rng hot in
      emit (Event.Realloc { obj = o; new_size = size () * 2; thread = 0 })
    end;
    emit (Event.Compute { instrs = 1 + Rng.int rng 20; thread = 0 })
  done;
  if reuse then begin
    let o = Rng.choose rng hot in
    free o;
    free o;
    access (-5);
    free (!next + 1000);
    emit (Event.Realloc { obj = !next + 1001; new_size = 64; thread = 0 })
  end;
  tr

(* ---- configurations --------------------------------------------------- *)

type switches = {
  sharing : bool;
  recycling : bool;
  hybrid : bool;
  arenas : bool;
  cap : int option;
}

let config_of (slot_mode, s) =
  { Pipeline.default_config with
    slot_mode;
    counter_sharing = s.sharing;
    recycling = s.recycling;
    hybrid_context = s.hybrid;
    lifetime_arenas = s.arenas;
    max_prealloc_bytes = s.cap }

let print_config variant (slot_mode, s) =
  Printf.sprintf "%s slots=%s sharing=%b recycling=%b hybrid=%b arenas=%b cap=%s"
    (Plan.variant_name variant) (Pipeline.slot_mode_name slot_mode) s.sharing s.recycling s.hybrid
    s.arenas
    (match s.cap with None -> "none" | Some c -> string_of_int c)

let variants = [ Plan.Hot; Plan.Hds; Plan.HdsHot ]
let slot_modes = [ Pipeline.Modulo; Pipeline.Interval ]

(* Every setting of the five switches, the cap at [cap] when on. *)
let all_switches ~cap =
  let b = [ false; true ] in
  List.concat_map
    (fun sharing ->
      List.concat_map
        (fun recycling ->
          List.concat_map
            (fun hybrid ->
              List.concat_map
                (fun arenas ->
                  List.map
                    (fun cap -> { sharing; recycling; hybrid; arenas; cap })
                    [ None; Some cap ])
                b)
            b)
        b)
    b

(* ---- comparison -------------------------------------------------------- *)

let outcome f = match f () with p -> Ok p | exception e -> Error (Printexc.to_string e)

(* The first field on which two plans differ, for the failure message. *)
let first_difference (a : Plan.t) (b : Plan.t) =
  List.find_map
    (fun (name, same) -> if same then None else Some name)
    [ ("variant", a.variant = b.variant);
      ("slots", a.slots = b.slots);
      ("region_bytes", a.region_bytes = b.region_bytes);
      ("site_counter", a.site_counter = b.site_counter);
      ("counters", a.counters = b.counters);
      ("placed_objects", a.placed_objects = b.placed_objects);
      ("profile", a.profile = b.profile) ]

(* [None] when the library's plan equals the reference's. *)
let mismatch ?ohds ~config ~variant stats trace =
  let got = outcome (fun () -> Pipeline.plan_with_stats ~config ?ohds ~variant stats trace) in
  let want = outcome (fun () -> Ref_pipeline.plan_with_stats ~config ?ohds ~variant stats trace) in
  match (got, want) with
  | Ok a, Ok b when a = b -> None
  | Error a, Error b when a = b -> None
  | Ok a, Ok b -> Some ("plans differ in " ^ Option.value ~default:"?" (first_difference a b))
  | Ok _, Error e -> Some ("reference raised " ^ e)
  | Error e, Ok _ -> Some ("planner raised " ^ e)
  | Error a, Error b -> Some (Printf.sprintf "raised %s, reference %s" a b)

let check_equal what = function
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" what msg

(* Algorithm 1 on its own: the reconstituted streams (objects and refs),
   the singletons and the per-stream coverage. *)
let layout_view (r : Prefix_core.Layout.result) =
  (List.map (fun h -> (Prefix_hds.Hds.objs h, Prefix_hds.Hds.refs h)) r.rhds, r.singletons, r.coverage)

let check_layout what ohds =
  if
    layout_view (Prefix_core.Layout.reconstitute ohds)
    <> layout_view (Ref_pipeline.Layout.reconstitute ohds)
  then Alcotest.failf "%s: reconstitution differs from the reference" what

let analyzed trace =
  let stats = Trace_stats.analyze trace in
  let ohds = Detector.detect_with_stats stats trace in
  check_layout "profile" ohds;
  (stats, ohds)

(* ---- properties and cases --------------------------------------------- *)

type case = {
  seed : int;
  objects : int;
  reuse : bool;
  variant : Plan.variant;
  slot_mode : Pipeline.slot_mode;
  switches : switches;
}

let print_case c =
  Printf.sprintf "seed=%d objects=%d reuse=%b %s" c.seed c.objects c.reuse
    (print_config c.variant (c.slot_mode, c.switches))

let case_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* objects = int_range 20 1500 in
  let* reuse = bool in
  let* variant = oneofl variants in
  let* slot_mode = oneofl slot_modes in
  let* sharing = bool in
  let* recycling = bool in
  let* hybrid = bool in
  let* arenas = bool in
  let+ cap = opt (int_range 0 8192) in
  { seed; objects; reuse; variant; slot_mode; switches = { sharing; recycling; hybrid; arenas; cap } }

let prop_plan_matches_reference =
  QCheck.Test.make ~name:"plan equals the reference planner's" ~count:150
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let trace = profile ~seed:c.seed ~objects:c.objects ~reuse:c.reuse in
      let stats, ohds = analyzed trace in
      match
        mismatch ~ohds ~config:(config_of (c.slot_mode, c.switches)) ~variant:c.variant stats
          trace
      with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Every variant, slot mode and switch setting on two fixed profiles,
   one of them with reused ids. *)
let test_every_configuration () =
  List.iter
    (fun (seed, reuse) ->
      let trace = profile ~seed ~objects:600 ~reuse in
      let stats, ohds = analyzed trace in
      List.iter
        (fun variant ->
          List.iter
            (fun slot_mode ->
              List.iter
                (fun s ->
                  let cfg = (slot_mode, s) in
                  check_equal
                    (Printf.sprintf "seed %d reuse %b %s" seed reuse (print_config variant cfg))
                    (mismatch ~ohds ~config:(config_of cfg) ~variant stats trace))
                (all_switches ~cap:2048))
            slot_modes)
        variants)
    [ (11, false); (12, true) ]

(* A profile of at least 5,000 objects, also planned without a shared
   detection so each planner detects for itself. *)
let test_large_profile () =
  let trace = profile ~seed:5 ~objects:8000 ~reuse:true in
  let stats, ohds = analyzed trace in
  let n = List.length (Trace_stats.objects stats) in
  Alcotest.(check bool) (Printf.sprintf "%d objects >= 5000" n) true (n >= 5000);
  let base = { sharing = true; recycling = true; hybrid = false; arenas = false; cap = None } in
  List.iter
    (fun variant ->
      List.iter
        (fun cfg ->
          check_equal
            ("large " ^ print_config variant cfg)
            (mismatch ~ohds ~config:(config_of cfg) ~variant stats trace))
        [ (Pipeline.Modulo, base);
          (Pipeline.Interval, base);
          (Pipeline.Modulo, { base with hybrid = true; arenas = true });
          (Pipeline.Modulo, { base with sharing = false; cap = Some 20_000 }) ])
    variants;
  check_equal "large, own detection"
    (mismatch ~config:Pipeline.default_config ~variant:Plan.HdsHot stats trace)

(* The 13 models' seed-7 profiles at the default configuration, every
   variant, both slot modes. *)
let test_benchmark_profiles () =
  List.iter
    (fun name ->
      let wl = Registry.find name in
      let trace = wl.generate ~scale:Workload.Profiling ~seed:7 () in
      let stats, ohds = analyzed trace in
      List.iter
        (fun variant ->
          List.iter
            (fun slot_mode ->
              let config = { Pipeline.default_config with slot_mode } in
              check_equal
                (Printf.sprintf "%s %s %s" name (Plan.variant_name variant)
                   (Pipeline.slot_mode_name slot_mode))
                (mismatch ~ohds ~config ~variant stats trace))
            slot_modes)
        variants)
    Registry.names

let suite =
  [ ( "pipeline-diff",
      [ QCheck_alcotest.to_alcotest prop_plan_matches_reference;
        Alcotest.test_case "every configuration" `Quick test_every_configuration;
        Alcotest.test_case "large profile" `Quick test_large_profile;
        Alcotest.test_case "benchmark profiles" `Slow test_benchmark_profiles ] ) ]
