module Trace_stats = Prefix_trace.Trace_stats

type decision = { n_slots : int; slot_bytes : int }

type config = {
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

(* Every incarnation allocated at one of [sites], site by site. *)
let members stats sites =
  List.map (Trace_stats.site_members stats) (List.sort_uniq Int.compare sites)

(* Peak of the live count over the members' [alloc, free) intervals.
   Alloc and Free events sit at distinct trace positions, so the peak
   is reached just after some allocation: the allocations up to it,
   minus the frees before it.  A never-freed object stays live (its
   slot in [frees] keeps [max_int]). *)
let peak_live members =
  let n = List.fold_left (fun n objs -> n + List.length objs) 0 members in
  let allocs = Array.make n 0 and frees = Array.make n max_int in
  let i = ref 0 in
  List.iter
    (List.iter (fun (o : Trace_stats.obj_info) ->
         allocs.(!i) <- o.alloc_index;
         (match o.free_index with Some f -> frees.(!i) <- f | None -> ());
         incr i))
    members;
  Array.sort Int.compare allocs;
  Array.sort Int.compare frees;
  let live = ref 0 and best = ref 0 and f = ref 0 in
  Array.iter
    (fun a ->
      while !f < n && frees.(!f) < a do
        decr live;
        incr f
      done;
      incr live;
      if !live > !best then best := !live)
    allocs;
  !best

let max_live_combined stats sites = peak_live (members stats sites)

let analyze ?(config = default_config) stats ~sites =
  let members = members stats sites in
  let total = List.fold_left (fun n objs -> n + List.length objs) 0 members in
  if total < config.min_total_allocs then None
  else begin
    let max_live = peak_live members in
    let slot_bytes =
      List.fold_left
        (List.fold_left (fun m (o : Trace_stats.obj_info) -> max m (max o.size o.alloc_size)))
        0 members
    in
    let ratio = float_of_int max_live /. float_of_int total in
    if ratio > config.max_live_ratio || slot_bytes > config.max_slot_bytes || max_live = 0 then
      None
    else
      let n_slots = int_of_float (ceil (float_of_int max_live *. config.headroom)) in
      Some { n_slots = max n_slots 1; slot_bytes }
  end
