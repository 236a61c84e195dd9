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

let dedup_keep_first objs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun o ->
      if Hashtbl.mem seen o then false
      else begin
        Hashtbl.replace seen o ();
        true
      end)
    objs

(* Sites whose profiled allocations are (almost) all hot are handled as
   "all ids" sites: every allocation is of interest, which is what makes
   both bulk placement (health) and recycling (swissmap, leela) work. *)
let promoted_sites cfg stats hot_set =
  Trace_stats.sites stats
  |> List.filter_map (fun (s : Trace_stats.site_info) ->
         if s.alloc_count < cfg.promote_site_min_allocs then None
         else begin
           let hot = List.length (List.filter (fun o -> Hashtbl.mem hot_set o) s.site_objects) in
           if float_of_int hot >= cfg.promote_site_threshold *. float_of_int s.alloc_count
           then Some s.site_id
           else None
         end)

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
  (* Placement order per variant. *)
  let alloc_order objs =
    List.sort
      (fun a b ->
        compare (Trace_stats.obj_info stats a).alloc_index
          (Trace_stats.obj_info stats b).alloc_index)
      objs
  in
  let hot_in_alloc_order = alloc_order (List.map (fun (o : Trace_stats.obj_info) -> o.obj) hot_infos) in
  let base_order =
    match (variant : Plan.variant) with
    | Hot -> hot_in_alloc_order
    | Hds -> hds_objs
    | HdsHot ->
      hds_objs @ alloc_order (List.filter (fun o -> not (Hashtbl.mem hds_set o)) hot_in_alloc_order)
  in
  (* Site promotion: append any not-yet-placed objects of promoted sites.
     The PreFix:HDS variant only places stream objects, so promoted sites
     join it solely when they are recyclable (recycling is orthogonal to
     the layout variants; without it the recycling benchmarks would lose
     their win in exactly one variant, which is not what §3.3 reports). *)
  let promoted = promoted_sites cfg stats hot_set in
  let promoted =
    match (variant : Plan.variant) with
    | Hot | HdsHot -> promoted
    | Hds ->
      (* A site qualifies if it recycles alone or as part of the whole
         promoted set (tandem sites only clear the minimum-allocation
         threshold together). *)
      let group_recycles =
        cfg.recycling
        && promoted <> []
        && Recycle.analyze ~config:cfg.recycle_config stats ~sites:promoted <> None
      in
      List.filter
        (fun site ->
          cfg.recycling
          && (group_recycles
             || Recycle.analyze ~config:cfg.recycle_config stats ~sites:[ site ] <> None))
        promoted
  in
  let promoted_objs =
    List.concat_map
      (fun site -> (Trace_stats.site_info stats site).site_objects)
      promoted
    |> alloc_order
  in
  let order = dedup_keep_first (base_order @ promoted_objs) in
  (* Enforce the prealloc cap before any further decisions. *)
  let size_of obj =
    let info = Trace_stats.obj_info stats obj in
    max info.size info.alloc_size
  in
  let order =
    match cfg.max_prealloc_bytes with
    | None -> order
    | Some cap ->
      let total = ref 0 in
      List.filter
        (fun o ->
          let s = (size_of o + 15) / 16 * 16 in
          if !total + s <= cap then begin
            total := !total + s;
            true
          end
          else false)
        order
  in
  let placed_set = Hashtbl.create (List.length order) in
  List.iter (fun o -> Hashtbl.replace placed_set o ()) order;
  (* Instrumented sites and counter groups. *)
  let sites =
    Trace_stats.sites stats
    |> List.filter (fun (s : Trace_stats.site_info) ->
           List.exists (fun o -> Hashtbl.mem placed_set o) s.site_objects)
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
        |> List.sort_uniq compare
      in
      let all_ctxs =
        List.map (fun (i : Trace_stats.obj_info) -> i.ctx) infos |> List.sort_uniq compare
      in
      match hot_ctxs with
      | [ c ] when List.length all_ctxs > 1 -> Some c
      | _ -> None
    end
  in
  let site_hybrid = List.map (fun s -> (s.Trace_stats.site_id, hybrid_ctx_of_site s)) sites in
  let site_allocs =
    List.map
      (fun (s : Trace_stats.site_info) ->
        let required = List.assoc s.site_id site_hybrid in
        let objects =
          match required with
          | None -> s.site_objects
          | Some c ->
            (* Only the gated signature's allocations advance the counter. *)
            List.filter
              (fun o -> (Trace_stats.obj_info stats o).ctx = c)
              s.site_objects
        in
        { Counters.site = s.site_id;
          allocs =
            List.map
              (fun o ->
                let info = Trace_stats.obj_info stats o in
                { Counters.pos = info.alloc_index; obj = o; hot = Hashtbl.mem placed_set o })
              objects })
      sites
  in
  (* Sites gated on different signatures must not share a counter: gate
     compatibility is part of sharing viability, enforced by pre-grouping. *)
  let hybrid_sites, plain_sites =
    List.partition
      (fun (sa : Counters.site_allocs) -> List.assoc sa.site site_hybrid <> None)
      site_allocs
  in
  let groups =
    let plain = Counters.share ~enable:cfg.counter_sharing plain_sites in
    let base = List.length plain in
    let hybrid =
      List.mapi
        (fun i sa ->
          match Counters.share ~enable:false [ sa ] with
          | [ g ] -> { g with Counters.counter = base + i }
          | _ -> assert false)
        hybrid_sites
    in
    plain @ hybrid
  in
  (* Recycling decisions: only for all-ids groups. *)
  let recycling_of_group (g : Counters.group) =
    if not cfg.recycling then None
    else
      match g.pattern with
      | Context.All _ -> Recycle.analyze ~config:cfg.recycle_config stats ~sites:g.sites
      | _ -> None
  in
  let group_recycle = List.map (fun g -> (g, recycling_of_group g)) groups in
  let recycled_objs = Hashtbl.create 64 in
  List.iter
    (fun ((g : Counters.group), r) ->
      if r <> None then
        List.iter
          (fun site ->
            List.iter
              (fun o -> Hashtbl.replace recycled_objs o ())
              (Trace_stats.site_info stats site).site_objects)
          g.sites)
    group_recycle;
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
  let hybrid_ctx_of_group (g : Counters.group) =
    match g.sites with
    | [ s ] -> Option.join (List.assoc_opt s site_hybrid)
    | _ -> None
  in
  (* Offsets: direct placements first, then one block per recycled group. *)
  let offsets, recycle_blocks =
    stage "offset-assignment" (fun () ->
        let offsets = ref (Offsets.assign ~size_of direct_order) in
        let recycle_blocks =
          List.filter_map
            (fun ((g : Counters.group), r) ->
              match r with
              | None -> None
              | Some (d : Recycle.decision) ->
                let off, first =
                  Offsets.extend !offsets ~count:d.n_slots ~size:d.slot_bytes
                in
                offsets := off;
                let assignment =
                  match cfg.slot_mode with
                  | Modulo -> []
                  | Interval ->
                    Intervals.slot_assignment (Lazy.force profile_intervals)
                      ~sites:g.sites ?required_ctx:(hybrid_ctx_of_group g)
                      ~n_slots:d.n_slots ()
                in
                Some
                  ( g.counter,
                    { Plan.first_slot = first;
                      n_slots = d.n_slots;
                      slot_bytes = d.slot_bytes;
                      assignment } ))
            group_recycle
        in
        (!offsets, recycle_blocks))
  in
  stage "plan"
  @@ fun () ->
  (* Counter plans. *)
  let counters =
    List.map
      (fun (g : Counters.group) ->
        let required_ctx =
          match g.sites with
          | [ s ] -> Option.join (List.assoc_opt s site_hybrid)
          | _ -> None
        in
        match List.assoc_opt g.counter recycle_blocks with
        | Some block ->
          { Plan.counter = g.counter;
            counter_sites = g.sites;
            pattern = Context.All { upto = None };
            placements = [];
            recycle = Some block;
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
      groups
  in
  let site_counter =
    List.concat_map (fun (g : Counters.group) -> List.map (fun s -> (s, g.counter)) g.sites) groups
  in
  (* Profile summary for Table 5. *)
  let captured =
    order @ Hashtbl.fold (fun o () acc -> o :: acc) recycled_objs []
    |> dedup_keep_first
  in
  let profile =
    { Plan.hot_count = List.length captured;
      hds_count = List.length (List.filter (fun o -> Hashtbl.mem hds_set o) captured);
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
