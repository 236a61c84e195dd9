(* The planner as it stood before planning became linear in the
   profile, kept verbatim as the oracle for test_pipeline_diff.ml:
   [Pipeline.plan_with_stats] with the [Context.infer],
   [Layout.reconstitute], [Offsets.assign]/[extend], [Counters.share]
   and [Recycle.analyze] it called.  The library's planner must return
   an equal [Plan.t] for every profile and configuration.  Types are
   shared with the library so the plans compare directly; nothing else
   departs from the old code but one stale comment, dropped. *)

module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Span = Prefix_obs.Span
module Plan = Prefix_core.Plan
module Lifetimes = Prefix_core.Lifetimes
module Intervals = Prefix_core.Intervals
module Pipeline = Prefix_core.Pipeline

module Context = struct
  include Prefix_core.Context

  let infer ~hot_instances ~total_instances =
    let ids = List.sort_uniq compare hot_instances in
    (match ids with [] -> invalid_arg "Context.infer: no hot instances" | _ -> ());
    List.iter
      (fun i ->
        if i < 1 || i > total_instances then
          invalid_arg "Context.infer: instance id out of range")
      ids;
    let n = List.length ids in
    if n = total_instances then All { upto = Some total_instances }
    else
      match ids with
      | a :: b :: _ when n >= 3 ->
        let step = b - a in
        let arithmetic =
          step > 0
          && fst
               (List.fold_left
                  (fun (ok, prev) x -> (ok && x - prev = step, x))
                  (true, a - step) ids)
        in
        (* A contiguous run (step 1) is reported as a fixed set, matching the
           paper's Table 2 labelling (mcf's {1,2,3} is "fixed ids"); Regular
           is reserved for genuinely strided progressions such as the odd
           instances. *)
        if arithmetic && step >= 2 then Regular { start = a; step; count = n } else Fixed ids
      | _ -> Fixed ids
end

module Layout = struct
  module IntSet = Set.Make (Int)

  type result = Prefix_core.Layout.result = {
    rhds : Hds.t list;
    singletons : int list;
    coverage : coverage list;
  }

  and coverage = Prefix_core.Layout.coverage = Fully_covered | Partially_covered | Not_covered

  (* Merge [remaining] into an existing stream so that the shared objects sit
     between the two streams' private objects where possible: if the shared
     objects live near the front of the existing order, the newcomers go in
     front; otherwise they go at the back.  This realises the paper's "two
     HDS can always be laid out adjacent with common objects in the middle". *)
  let merge_orders existing_order remaining shared =
    let n = List.length existing_order in
    let positions =
      List.mapi (fun i o -> (i, o)) existing_order
      |> List.filter (fun (_, o) -> IntSet.mem o shared)
      |> List.map fst
    in
    let front =
      match positions with
      | [] -> false
      | _ ->
        let avg =
          float_of_int (List.fold_left ( + ) 0 positions) /. float_of_int (List.length positions)
        in
        avg < float_of_int n /. 2.
    in
    if front then remaining @ existing_order else existing_order @ remaining

  type entry = { mutable objs : int list; mutable set : IntSet.t; mutable merged : bool; refs : int }

  let reconstitute ohds =
    let ohds = List.sort Hds.compare_by_refs ohds in
    let entries : entry list ref = ref [] in
    (* [entries] is kept in insertion order (head = oldest) via append. *)
    let singletons = ref [] in
    let all_objs () =
      List.fold_left (fun acc e -> IntSet.union acc e.set) IntSet.empty !entries
    in
    List.iter
      (fun current ->
        let cset = Hds.obj_set current in
        let placed = all_objs () in
        let remaining = Hds.diff_objs current placed in
        if remaining = [] then () (* fully represented already: nothing to do *)
        else if IntSet.is_empty (IntSet.inter cset placed) then
          (* Unchanged inclusion. *)
          entries :=
            !entries
            @ [ { objs = Hds.objs current;
                  set = cset;
                  merged = false;
                  refs = Hds.refs current } ]
        else begin
          (* Shares objects with RHDS: try to merge the remainder into the
             first not-yet-merged stream that shares an object. *)
          let done_ = ref false in
          List.iter
            (fun e ->
              if (not !done_) && (not e.merged) && not (IntSet.is_empty (IntSet.inter cset e.set))
              then begin
                e.merged <- true;
                let shared = IntSet.inter cset e.set in
                e.objs <- merge_orders e.objs remaining shared;
                e.set <- IntSet.union e.set (IntSet.of_list remaining);
                done_ := true
              end)
            !entries;
          if not !done_ then begin
            match remaining with
            | [ single ] -> singletons := !singletons @ [ single ]
            | _ :: _ :: _ ->
              entries :=
                !entries
                @ [ { objs = remaining;
                      set = IntSet.of_list remaining;
                      merged = false;
                      refs = Hds.refs current } ]
            | [] -> assert false
          end
        end)
      ohds;
    let rhds = List.map (fun e -> Hds.make ~objs:e.objs ~refs:e.refs) !entries in
    let covered = all_objs () in
    let coverage =
      List.map
        (fun h ->
          let inter = IntSet.inter (Hds.obj_set h) covered in
          if IntSet.cardinal inter = Hds.cardinal h then Fully_covered
          else if IntSet.is_empty inter then Not_covered
          else Partially_covered)
        ohds
    in
    (* Singletons may have been absorbed into a later stream; drop those. *)
    let singletons = List.filter (fun o -> not (IntSet.mem o covered)) !singletons in
    { rhds; singletons; coverage }
end

module Offsets = struct
  type slot = Prefix_core.Offsets.slot = { offset : int; size : int }

  type t = {
    slots : slot list;
    index : (int, int) Hashtbl.t; (* obj -> slot index *)
    total : int;
  }

  let align = 16

  let round_up n = (n + align - 1) / align * align

  let assign ~size_of order =
    let index = Hashtbl.create (List.length order) in
    let slots, total =
      List.fold_left
        (fun (acc, off) obj ->
          if Hashtbl.mem index obj then invalid_arg "Offsets.assign: duplicate object";
          let size = size_of obj in
          if size <= 0 then invalid_arg "Offsets.assign: non-positive size";
          let size = round_up size in
          Hashtbl.replace index obj (List.length acc);
          ({ offset = off; size } :: acc, off + size))
        ([], 0) order
    in
    { slots = List.rev slots; index; total }

  let slots t = t.slots

  let slot_of_obj t obj = Hashtbl.find_opt t.index obj

  let region_bytes t = t.total

  let extend t ~count ~size =
    if count <= 0 || size <= 0 then invalid_arg "Offsets.extend: bad geometry";
    let size = round_up size in
    let first = List.length t.slots in
    let extra = List.init count (fun i -> { offset = t.total + (i * size); size }) in
    ({ t with slots = t.slots @ extra; total = t.total + (count * size) }, first)
end

module Counters = struct
  type alloc = Prefix_core.Counters.alloc = { pos : int; obj : int; hot : bool }

  type site_allocs = Prefix_core.Counters.site_allocs = { site : int; allocs : alloc list }

  type group = Prefix_core.Counters.group = {
    counter : int;
    sites : int list;
    pattern : Context.pattern;
    hot_assignments : (int * int) list;
    total : int;
  }

  let simulate sites =
    let merged =
      List.concat_map (fun s -> s.allocs) sites |> List.sort (fun a b -> compare a.pos b.pos)
    in
    List.mapi (fun i a -> (i + 1, a.obj, a.hot)) merged

  (* A candidate grouping is viable if its hot ids still form a supported
     pattern under the shared numbering: All and Regular always qualify; a
     Fixed set qualifies when it is a single consecutive run (sites working
     "in tandem", like mcf's three graph allocations) or stays very small. *)
  let viable ~max_fixed sites =
    let numbered = simulate sites in
    let hot_ids = List.filter_map (fun (id, _, hot) -> if hot then Some id else None) numbered in
    match hot_ids with
    | [] -> None
    | first :: _ -> (
      let total = List.length numbered in
      let pattern = Context.infer ~hot_instances:hot_ids ~total_instances:total in
      match pattern with
      | Context.Fixed ids ->
        let n = List.length ids in
        let last = List.nth ids (n - 1) in
        let consecutive = last - first + 1 = n in
        if consecutive || n <= max_fixed then Some pattern else None
      | _ -> Some pattern)

  let build_group counter sites =
    let numbered = simulate sites in
    let hot_ids = List.filter_map (fun (id, _, hot) -> if hot then Some id else None) numbered in
    let total = List.length numbered in
    let pattern = Context.infer ~hot_instances:hot_ids ~total_instances:total in
    { counter;
      sites = List.map (fun s -> s.site) sites;
      pattern;
      hot_assignments =
        List.filter_map (fun (id, obj, hot) -> if hot then Some (id, obj) else None) numbered;
      total }

  let share ?(max_fixed = 3) ?(enable = true) sites =
    List.iter
      (fun s ->
        if not (List.exists (fun a -> a.hot) s.allocs) then
          invalid_arg
            (Printf.sprintf "Counters.share: site %d allocates no hot object" s.site))
      sites;
    let first_pos s = match s.allocs with [] -> max_int | a :: _ -> a.pos in
    let sites = List.sort (fun a b -> compare (first_pos a) (first_pos b)) sites in
    if not enable then List.mapi (fun i s -> build_group i [ s ]) sites
    else begin
      (* groups: list of site lists, in creation order. *)
      let groups : site_allocs list list ref = ref [] in
      List.iter
        (fun s ->
          let rec try_join acc = function
            | [] -> groups := !groups @ [ [ s ] ]
            | g :: rest -> (
              match viable ~max_fixed (g @ [ s ]) with
              | Some _ -> groups := List.rev_append acc ((g @ [ s ]) :: rest)
              | None -> try_join (g :: acc) rest)
          in
          try_join [] !groups)
        sites;
      List.mapi build_group !groups
    end

  let num_counters groups = List.length groups
end

module Recycle = struct
  type decision = Prefix_core.Recycle.decision = { n_slots : int; slot_bytes : int }

  type config = Prefix_core.Recycle.config = {
    min_total_allocs : int;
    max_live_ratio : float;
    headroom : float;
    max_slot_bytes : int;
  }

  let default_config =
    { min_total_allocs = 64;
      max_live_ratio = 0.25;
      headroom = 1.25;
      max_slot_bytes = 1024 * 1024 }

  let max_live_combined stats sites =
    let site_set = Hashtbl.create (List.length sites) in
    List.iter (fun s -> Hashtbl.replace site_set s ()) sites;
    let events =
      Trace_stats.objects stats
      |> List.filter (fun (o : Trace_stats.obj_info) -> Hashtbl.mem site_set o.site)
      |> List.concat_map (fun (o : Trace_stats.obj_info) ->
             let fin = match o.free_index with Some i -> i | None -> max_int in
             [ (o.alloc_index, 1); (fin, -1) ])
      |> List.sort compare
    in
    let live = ref 0 and best = ref 0 in
    List.iter
      (fun (_, d) ->
        live := !live + d;
        if !live > !best then best := !live)
      events;
    !best

  let analyze ?(config = default_config) stats ~sites =
    let objs =
      Trace_stats.objects stats
      |> List.filter (fun (o : Trace_stats.obj_info) -> List.mem o.site sites)
    in
    let total = List.length objs in
    if total < config.min_total_allocs then None
    else begin
      let max_live = max_live_combined stats sites in
      let slot_bytes =
        List.fold_left (fun m (o : Trace_stats.obj_info) -> max m (max o.size o.alloc_size)) 0 objs
      in
      let ratio = float_of_int max_live /. float_of_int total in
      if ratio > config.max_live_ratio || slot_bytes > config.max_slot_bytes || max_live = 0 then
        None
      else
        let n_slots = int_of_float (ceil (float_of_int max_live *. config.headroom)) in
        Some { n_slots = max n_slots 1; slot_bytes }
    end
end

module Log = (val Logs.src_log Prefix_obs.Log.pipeline)

(* Every planning stage runs under a span so `prefix stats` / --obs-out
   can show where pipeline time goes. *)
let stage name f = Span.with_ ~cat:"pipeline" name f

open Pipeline

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
