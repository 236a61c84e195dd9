(* Oracle-based property tests.

   1. The set-associative cache is compared against a straightforward
      reference implementation (association list per set, explicit
      recency ordering) on random access streams.  (The stamp-model
      differential over random geometries, writes and counters lives in
      test_cachesim.ml.)
   2. Every allocation policy is replayed over random valid traces while
      an interval map checks that no two live objects ever overlap and
      that every returned address is properly aligned — the fundamental
      memory-safety property that the paper's "correctness of
      transformations" argument (§2.3) rests on. *)

module Cache = Prefix_cachesim.Cache
module Rng = Prefix_util.Rng
module B = Prefix_workloads.Builder
module Policy = Prefix_runtime.Policy
module Costs = Prefix_runtime.Costs
module Allocator = Prefix_heap.Allocator
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan

(* ---- 1. Reference LRU cache ---- *)

module Ref_cache = struct
  type t = {
    sets : int;
    assoc : int;
    line_bits : int;
    contents : (int, int list ref) Hashtbl.t; (* set -> tags, MRU first *)
  }

  let create ~sets ~assoc ~line_bits = { sets; assoc; line_bits; contents = Hashtbl.create 64 }

  let access t addr =
    let line = addr lsr t.line_bits in
    let set = line mod t.sets in
    let tags =
      match Hashtbl.find_opt t.contents set with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.contents set l;
        l
    in
    let hit = List.mem line !tags in
    let without = List.filter (fun x -> x <> line) !tags in
    let updated = line :: without in
    tags := if List.length updated > t.assoc then List.filteri (fun i _ -> i < t.assoc) updated
            else updated;
    hit
end

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache agrees with reference LRU" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 400) (int_bound 8191)))
    (fun (_, addrs) ->
      let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
      let r = Ref_cache.create ~sets:8 ~assoc:2 ~line_bits:6 in
      List.for_all (fun a -> Cache.probe c ~write:false a = Ref_cache.access r a) addrs)

let prop_tlb_matches_reference =
  QCheck.Test.make ~name:"tlb agrees with reference LRU" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 300) (int_bound 1_000_000))
    (fun addrs ->
      let c = Cache.create_entries ~entries:16 ~assoc:4 ~page_bytes:4096 () in
      let r = Ref_cache.create ~sets:4 ~assoc:4 ~line_bits:12 in
      List.for_all (fun a -> Cache.probe c ~write:false a = Ref_cache.access r a) addrs)

(* ---- 2. Policy address-safety ---- *)

(* Random-but-valid trace: allocations from a handful of sites, hot
   accesses, frees, reallocs. *)
let random_trace seed =
  let rng = Rng.create seed in
  let b = B.create ~seed () in
  let live = ref [] in
  (* a few long-lived hot objects so plans are non-trivial *)
  let hot =
    List.init 4 (fun _ -> B.alloc b ~site:1 (16 + (16 * Rng.int rng 4)))
  in
  for _ = 1 to 60 do
    List.iter (fun o -> B.access b o 0) hot
  done;
  for _ = 1 to 150 do
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let size = 16 + (16 * Rng.int rng 20) in
      let o = B.alloc b ~site:(2 + Rng.int rng 3) size in
      B.access b o 0;
      live := o :: !live
    | 4 | 5 when !live <> [] ->
      let i = Rng.int rng (List.length !live) in
      B.free b (List.nth !live i);
      live := List.filteri (fun j _ -> j <> i) !live
    | 6 when !live <> [] ->
      let o = List.nth !live (Rng.int rng (List.length !live)) in
      B.realloc b o (16 + (16 * Rng.int rng 25))
    | _ -> List.iter (fun o -> B.access b o 0) hot
  done;
  B.trace b

(* Replay a trace through a policy, checking interval disjointness. *)
let safe_replay (policy : Policy.t) trace =
  let live : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let overlaps addr size =
    Hashtbl.fold
      (fun _ (a, s) bad -> bad || (addr < a + s && a < addr + size))
      live false
  in
  let ok = ref true in
  Prefix_trace.Trace.iter
    (fun e ->
      match (e : Prefix_trace.Event.t) with
      | Alloc { obj; site; ctx; size; _ } ->
        let addr = policy.alloc ~obj ~site ~ctx ~size in
        if addr mod 16 <> 0 then ok := false;
        if overlaps addr size then ok := false;
        Hashtbl.replace live obj (addr, size)
      | Free { obj; _ } ->
        let addr, size = Hashtbl.find live obj in
        policy.dealloc ~obj ~addr ~size;
        Hashtbl.remove live obj
      | Realloc { obj; new_size; _ } ->
        let addr, old_size = Hashtbl.find live obj in
        Hashtbl.remove live obj;
        let fresh = policy.realloc ~obj ~addr ~old_size ~new_size in
        if overlaps fresh new_size then ok := false;
        Hashtbl.replace live obj (fresh, new_size)
      | Access _ | Compute _ -> ())
    trace;
  policy.finish ();
  !ok

let policies_for trace =
  let costs = Costs.default in
  let stats = Prefix_trace.Trace_stats.analyze trace in
  let prefix_plan = Pipeline.plan_with_stats ~variant:Plan.HdsHot stats trace in
  let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats trace in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats trace in
  [ ("baseline", fun heap -> Policy.baseline costs heap);
    ("hds", fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan Policy.no_classification);
    ("halo", fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan Policy.no_classification);
    ("prefix", fun heap -> Prefix_runtime.Prefix_policy.policy costs heap prefix_plan Policy.no_classification) ]

let prop_policies_memory_safe =
  QCheck.Test.make ~name:"all policies keep live objects disjoint" ~count:40
    QCheck.small_int
    (fun seed ->
      let trace = random_trace seed in
      List.for_all
        (fun (_, mk) ->
          let heap = Allocator.create () in
          safe_replay (mk heap) trace)
        (policies_for trace))

(* Plans generated from any of the 13 profiling workloads validate. *)
let test_all_workload_plans_validate () =
  List.iter
    (fun (w : Prefix_workloads.Workload.t) ->
      let trace = w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 () in
      let stats = Prefix_trace.Trace_stats.analyze trace in
      List.iter
        (fun variant ->
          let plan = Pipeline.plan_with_stats ~variant stats trace in
          match Plan.validate plan with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s/%s: %s" w.name (Plan.variant_name variant) e)
        [ Plan.Hot; Plan.Hds; Plan.HdsHot ])
    Prefix_workloads.Registry.all

(* Barchart sanity (lives here to keep util tests focused). *)
let test_barchart () =
  let c = Prefix_util.Barchart.create ~width:10 ~unit_label:"%" ~title:"t" () in
  Prefix_util.Barchart.add c ~label:"a" (-50.);
  Prefix_util.Barchart.add_pair c ~label:"b" 100. 25.;
  let s = Prefix_util.Barchart.render c in
  Alcotest.(check bool) "renders title" true (String.length s > 1);
  Alcotest.(check bool) "negative marker" true (String.contains s '<');
  Alcotest.(check bool) "positive marker" true (String.contains s '#')

let suite =
  [ ( "oracles",
      [ QCheck_alcotest.to_alcotest prop_cache_matches_reference;
        QCheck_alcotest.to_alcotest prop_tlb_matches_reference;
        QCheck_alcotest.to_alcotest prop_policies_memory_safe;
        Alcotest.test_case "all workload plans validate" `Slow
          test_all_workload_plans_validate;
        Alcotest.test_case "barchart" `Quick test_barchart ] ) ]
