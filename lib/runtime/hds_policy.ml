module Allocator = Prefix_heap.Allocator
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Trace_stats = Prefix_trace.Trace_stats
module Metric = Prefix_obs.Metric

type plan = { interesting_sites : int list }

let plan_of_trace ?detector ?ohds stats trace =
  let ohds =
    match ohds with
    | Some ohds -> ohds
    | None ->
      let config = Option.value ~default:Detector.default_config detector in
      Detector.detect_with_stats ~config stats trace
  in
  let sites =
    List.concat_map Hds.objs ohds
    |> List.map (fun o -> (Trace_stats.obj_info stats o).site)
    |> List.sort_uniq compare
  in
  { interesting_sites = sites }

let policy ?(mode = Policy.Strict) ?region_cap (costs : Costs.t) heap plan
    (cls : Policy.classification) =
  let stats = Policy.fresh_stats () in
  let interesting = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace interesting s ()) plan.interesting_sites;
  let region = Region.create ?max_bytes:region_cap heap ~chunk_bytes:(256 * 1024) in
  let exhausted = Metric.counter "policy.region_exhausted" in
  (* Region full: in lenient mode the object degrades to a plain heap
     allocation (counted); in strict mode [Region.alloc] raises. *)
  let region_alloc size =
    match mode with
    | Policy.Strict -> Region.alloc region size
    | Policy.Lenient -> (
      match Region.try_alloc region size with
      | Some addr -> addr
      | None ->
        stats.degraded_fallbacks <- stats.degraded_fallbacks + 1;
        Metric.incr exhausted;
        Allocator.malloc heap size)
  in
  { Policy.name = "HDS";
    alloc =
      (fun ~obj ~site ~ctx:_ ~size ->
        if Hashtbl.mem interesting site then begin
          (* Redirected wholesale: allocation order, no checks.  The cost
             is "similar to other heap objects" (Table 1). *)
          stats.mgmt_instrs <- stats.mgmt_instrs + costs.malloc_instrs;
          stats.region_objects <- stats.region_objects + 1;
          if cls.is_hot obj then stats.region_hot_objects <- stats.region_hot_objects + 1;
          if cls.is_hds obj then stats.region_hds_objects <- stats.region_hds_objects + 1;
          region_alloc size
        end
        else begin
          stats.mgmt_instrs <- stats.mgmt_instrs + costs.malloc_instrs;
          Allocator.malloc heap size
        end);
    dealloc =
      (fun ~obj:_ ~addr ~size ->
        stats.mgmt_instrs <- stats.mgmt_instrs + costs.free_instrs;
        if Region.contains region addr then Region.release region addr size
        else Allocator.free heap addr);
    realloc =
      (fun ~obj:_ ~addr ~old_size ~new_size ->
        stats.mgmt_instrs <- stats.mgmt_instrs + costs.realloc_instrs;
        if Region.contains region addr then begin
          if new_size <= old_size then addr
          else begin
            (* Move out of the region; copy cost applies, and the old
               block goes back to the region's free lists — the seed
               leaked it, leaving [allocated_bytes] permanently
               inflated by every grown object. *)
            stats.mgmt_instrs <-
              stats.mgmt_instrs + (old_size / 16 * costs.memcpy_instrs_per_16b);
            Region.release region addr old_size;
            Allocator.malloc heap new_size
          end
        end
        else Allocator.realloc heap addr new_size);
    finish =
      (fun () ->
        stats.region_peak_bytes <- Region.peak_bytes region;
        Region.dispose region);
    stats;
    regions = (fun () -> Region.chunks region) }
