module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Span = Prefix_obs.Span
module Log = (val Logs.src_log Prefix_obs.Log.pipeline)

(* Every planning stage runs under a span so `prefix stats` / --obs-out
   can show where pipeline time goes. *)
let stage name f = Span.with_ ~cat:"pipeline" name f

type slot_mode = Modulo | Interval

let slot_mode_name = function Modulo -> "modulo" | Interval -> "interval"

type config = {
  coverage : float;
  detector : Detector.config;
  method_ : Detector.method_;
  counter_sharing : bool;
  recycling : bool;
  recycle_config : Recycle.config;
  slot_mode : slot_mode;
  max_prealloc_bytes : int option;
  promote_site_threshold : float;
  promote_site_min_allocs : int;
  hybrid_context : bool;
  lifetime_arenas : bool;
}

let default_config =
  { coverage = 0.95;
    detector = Detector.default_config;
    method_ = Detector.Lcs;
    counter_sharing = true;
    recycling = true;
    recycle_config = Recycle.default_config;
    slot_mode = Modulo;
    max_prealloc_bytes = None;
    promote_site_threshold = 0.8;
    promote_site_min_allocs = 8;
    hybrid_context = false;
    lifetime_arenas = false }

(* Sites whose profiled allocations are (almost) all hot are handled as
   "all ids" sites: every allocation is of interest, which is what makes
   both bulk placement (health) and recycling (swissmap, leela) work. *)
let promoted_sites cfg sites hot_set =
  List.filter_map
    (fun (s : Trace_stats.site_info) ->
      if s.alloc_count < cfg.promote_site_min_allocs then None
      else begin
        let hot =
          List.fold_left (fun n o -> if Hashtbl.mem hot_set o then n + 1 else n) 0 s.site_objects
        in
        if float_of_int hot >= cfg.promote_site_threshold *. float_of_int s.alloc_count
        then Some s.site_id
        else None
      end)
    sites

(* [objs] stably sorted by the allocation index of each id's latest
   incarnation: one table lookup per object, then an int sort. *)
let alloc_order stats objs =
  let objs = Array.of_list objs in
  let keys = Array.map (fun o -> (Trace_stats.obj_info stats o).alloc_index) objs in
  let perm = Array.init (Array.length objs) Fun.id in
  Array.stable_sort (fun i j -> Int.compare keys.(i) keys.(j)) perm;
  Array.fold_right (fun i acc -> objs.(i) :: acc) perm []

let plan_with_stats ?(config = default_config) ?ohds ~variant stats trace =
  Span.with_ ~cat:"pipeline"
    ~args:[ ("variant", Plan.variant_name variant) ]
    "pipeline"
  @@ fun () ->
  let cfg = config in
  let hot_infos, hot_set =
    stage "hot-selection" (fun () ->
        let hot_infos = Trace_stats.hot_objects ~coverage:cfg.coverage stats in
        let hot_set = Hashtbl.create (List.length hot_infos) in
        List.iter
          (fun (o : Trace_stats.obj_info) -> Hashtbl.replace hot_set o.obj ())
          hot_infos;
        (hot_infos, hot_set))
  in
  (* HDS detection (unless the caller already ran it on this profile)
     + reconstitution. *)
  let ohds =
    match ohds with
    | Some ohds -> ohds
    | None ->
      stage "hds-detection" (fun () ->
          Detector.detect_with_stats ~config:cfg.detector ~method_:cfg.method_ stats trace)
  in
  let layout = stage "reconstitution" (fun () -> Layout.reconstitute ohds) in
  Log.debug (fun m ->
      m "%s: %d hot objects, %d OHDS, %d RHDS" (Plan.variant_name variant)
        (List.length hot_infos) (List.length ohds)
        (List.length layout.rhds));
  let hds_objs = List.concat_map Hds.objs layout.rhds in
  let hds_set = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace hds_set o ()) hds_objs;
  let hot_in_alloc_order =
    alloc_order stats (List.map (fun (o : Trace_stats.obj_info) -> o.obj) hot_infos)
  in
  (* Placement order per variant: its base objects, then the objects of
     promoted sites that are not among them. *)
  let base, in_base =
    match (variant : Plan.variant) with
    | Hot -> ([ hot_in_alloc_order ], Hashtbl.mem hot_set)
    | Hds -> ([ hds_objs ], Hashtbl.mem hds_set)
    | HdsHot ->
      ([ hds_objs; hot_in_alloc_order ], fun o -> Hashtbl.mem hds_set o || Hashtbl.mem hot_set o)
  in
  let all_sites = Trace_stats.sites stats in
  let recycling sites =
    if cfg.recycling then Recycle.analyze ~config:cfg.recycle_config stats ~sites else None
  in
  (* Site promotion: append any not-yet-placed objects of promoted sites.
     The PreFix:HDS variant only places stream objects, so promoted sites
     join it solely when they are recyclable (recycling is orthogonal to
     the layout variants; without it the recycling benchmarks would lose
     their win in exactly one variant, which is not what §3.3 reports). *)
  let promoted = promoted_sites cfg all_sites hot_set in
  let promoted =
    match (variant : Plan.variant) with
    | Hot | HdsHot -> promoted
    | Hds ->
      (* A site qualifies if it recycles alone or as part of the whole
         promoted set (tandem sites only clear the minimum-allocation
         threshold together). *)
      let group_recycles = promoted <> [] && recycling promoted <> None in
      List.filter (fun site -> group_recycles || recycling [ site ] <> None) promoted
  in
  let promoted_objs =
    List.concat_map
      (fun site ->
        List.filter (fun o -> not (in_base o)) (Trace_stats.site_info stats site).site_objects)
      promoted
    |> alloc_order stats
  in
  let size_of obj =
    let info = Trace_stats.obj_info stats obj in
    max info.size info.alloc_size
  in
  (* Each object once, in that order, under the prealloc cap: an object
     that no longer fits is skipped (a later, smaller one may still fit;
     a later duplicate of it cannot, as the total only grows). *)
  let candidates = base @ [ promoted_objs ] in
  let placed_set =
    Hashtbl.create (List.fold_left (fun n l -> n + List.length l) 0 candidates)
  in
  let total = ref 0 in
  let fits o =
    match cfg.max_prealloc_bytes with
    | None -> true
    | Some cap ->
      let s = (size_of o + 15) / 16 * 16 in
      if !total + s > cap then false
      else begin
        total := !total + s;
        true
      end
  in
  let order =
    List.rev
      (List.fold_left
         (List.fold_left (fun acc o ->
              if Hashtbl.mem placed_set o || not (fits o) then acc
              else begin
                Hashtbl.replace placed_set o ();
                o :: acc
              end))
         [] candidates)
  in
  (* The hybrid mechanism (§2.2.2): a site whose hot objects all carry
     one call-stack signature — while its other allocations do not — can
     gate its counter on that signature.  Instance ids are then numbered
     within the signature's own subsequence, which stays stable even when
     the interleaving with the site's other paths is input-dependent. *)
  let hybrid_ctx_of_site (s : Trace_stats.site_info) =
    if not cfg.hybrid_context then None
    else begin
      let infos = List.map (Trace_stats.obj_info stats) s.site_objects in
      let hot_ctxs =
        List.filter_map
          (fun (i : Trace_stats.obj_info) ->
            if Hashtbl.mem placed_set i.obj then Some i.ctx else None)
          infos
        |> List.sort_uniq Int.compare
      in
      let all_ctxs =
        List.map (fun (i : Trace_stats.obj_info) -> i.ctx) infos |> List.sort_uniq Int.compare
      in
      match hot_ctxs with
      | [ c ] when List.length all_ctxs > 1 -> Some c
      | _ -> None
    end
  in
  (* Instrumented sites, each with the signature its counter is gated on. *)
  let sites =
    List.filter_map
      (fun (s : Trace_stats.site_info) ->
        if List.exists (fun o -> Hashtbl.mem placed_set o) s.site_objects then
          Some (s, hybrid_ctx_of_site s)
        else None)
      all_sites
  in
  let site_allocs ((s : Trace_stats.site_info), required) =
    let objects =
      match required with
      | None -> s.site_objects
      | Some c ->
        (* Only the gated signature's allocations advance the counter. *)
        List.filter (fun o -> (Trace_stats.obj_info stats o).ctx = c) s.site_objects
    in
    { Counters.site = s.site_id;
      allocs =
        List.map
          (fun o ->
            let info = Trace_stats.obj_info stats o in
            { Counters.pos = info.alloc_index; obj = o; hot = Hashtbl.mem placed_set o })
          objects }
  in
  (* Counter groups, each with its gate and its recycling decision.
     Sites gated on different signatures must not share a counter: gate
     compatibility is part of sharing viability, enforced by
     pre-grouping. *)
  let hybrid_sites, plain_sites = List.partition (fun (_, required) -> required <> None) sites in
  let groups =
    let plain =
      Counters.share ~enable:cfg.counter_sharing (List.map site_allocs plain_sites)
    in
    let base = List.length plain in
    let hybrid =
      List.mapi
        (fun i ((_, required) as site) ->
          match Counters.share ~enable:false [ site_allocs site ] with
          | [ g ] -> ({ g with Counters.counter = base + i }, required)
          | _ -> assert false)
        hybrid_sites
    in
    (* Recycling decisions: only for all-ids groups. *)
    List.map (fun g -> (g, None)) plain @ hybrid
    |> List.map (fun ((g : Counters.group), required_ctx) ->
           let r = match g.pattern with Context.All _ -> recycling g.sites | _ -> None in
           (g, required_ctx, r))
  in
  let recycled_objs = Hashtbl.create 64 in
  List.iter
    (fun ((g : Counters.group), _, r) ->
      if r <> None then
        List.iter
          (fun site ->
            List.iter
              (fun o -> Hashtbl.replace recycled_objs o ())
              (Trace_stats.site_info stats site).site_objects)
          g.sites)
    groups;
  let direct_order = List.filter (fun o -> not (Hashtbl.mem recycled_objs o)) order in
  (* Future-work extension: segregate the region by lifetime class so
     one class's deaths free a contiguous span (several arenas in one). *)
  let direct_order =
    if cfg.lifetime_arenas then
      Lifetimes.regroup stats ~trace_len:(Trace.length trace) direct_order
    else direct_order
  in
  (* Liveness intervals back the interval-colored slot maps; extracted
     once (lazily) from the profiling trace only when a recycling group
     will consume them. *)
  let profile_intervals =
    lazy (stage "liveness-intervals" (fun () -> Intervals.of_trace trace))
  in
  (* Offsets: direct placements first, then one block per recycled group. *)
  let offsets, blocks =
    stage "offset-assignment" (fun () ->
        let offsets = ref (Offsets.assign ~size_of direct_order) in
        let blocks =
          List.map
            (fun ((g : Counters.group), required_ctx, r) ->
              let block =
                Option.map
                  (fun (d : Recycle.decision) ->
                    let off, first = Offsets.extend !offsets ~count:d.n_slots ~size:d.slot_bytes in
                    offsets := off;
                    let assignment =
                      match cfg.slot_mode with
                      | Modulo -> []
                      | Interval ->
                        Intervals.slot_assignment (Lazy.force profile_intervals)
                          ~sites:g.sites ?required_ctx ~n_slots:d.n_slots ()
                    in
                    { Plan.first_slot = first;
                      n_slots = d.n_slots;
                      slot_bytes = d.slot_bytes;
                      assignment })
                  r
              in
              (g, required_ctx, block))
            groups
        in
        (!offsets, blocks))
  in
  stage "plan"
  @@ fun () ->
  (* Counter plans. *)
  let counters =
    List.map
      (fun ((g : Counters.group), required_ctx, block) ->
        match block with
        | Some _ ->
          { Plan.counter = g.counter;
            counter_sites = g.sites;
            pattern = Context.All { upto = None };
            placements = [];
            recycle = block;
            required_ctx }
        | None ->
          let placements =
            List.filter_map
              (fun (id, obj) ->
                match Offsets.slot_of_obj offsets obj with
                | Some slot -> Some (id, slot)
                | None -> None)
              g.hot_assignments
          in
          { Plan.counter = g.counter;
            counter_sites = g.sites;
            pattern = g.pattern;
            placements;
            recycle = None;
            required_ctx })
      blocks
  in
  let site_counter =
    List.concat_map
      (fun ((g : Counters.group), _, _) -> List.map (fun s -> (s, g.counter)) g.sites)
      groups
  in
  (* Profile summary for Table 5: the placed objects and the recycled
     ones, each once. *)
  let captured =
    Hashtbl.fold
      (fun o () acc -> if Hashtbl.mem placed_set o then acc else o :: acc)
      recycled_objs order
  in
  let profile =
    { Plan.hot_count = List.length captured;
      hds_count = List.fold_left (fun n o -> if Hashtbl.mem hds_set o then n + 1 else n) 0 captured;
      heap_access_share = Trace_stats.heap_access_share stats captured;
      ohds_count = List.length ohds;
      rhds_count = List.length layout.rhds }
  in
  { Plan.variant;
    slots = Offsets.slots offsets;
    region_bytes = Offsets.region_bytes offsets;
    site_counter;
    counters;
    placed_objects = direct_order;
    profile }

let analyze trace = stage "trace-analysis" (fun () -> Trace_stats.analyze trace)

let analyze_stream stream =
  stage "trace-analysis" (fun () -> Trace_stats.analyze_stream stream)

let plan ?config ~variant trace =
  let stats = analyze trace in
  plan_with_stats ?config ~variant stats trace
