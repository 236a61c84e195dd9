(* Tests for Prefix_runtime: Region, the four policies (Figures 4-7
   semantics), and the Executor. *)

module Allocator = Prefix_heap.Allocator
module Arena = Prefix_heap.Arena
module Region = Prefix_runtime.Region
module Policy = Prefix_runtime.Policy
module Hds_policy = Prefix_runtime.Hds_policy
module Halo_policy = Prefix_runtime.Halo_policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Executor = Prefix_runtime.Executor
module Costs = Prefix_runtime.Costs
module Plan = Prefix_core.Plan
module Context = Prefix_core.Context
module Pipeline = Prefix_core.Pipeline
module B = Prefix_workloads.Builder
module Trace = Prefix_trace.Trace

let costs = Costs.default

(* ---- Region ---- *)

let test_region_bump () =
  let heap = Allocator.create () in
  let r = Region.create heap ~chunk_bytes:256 in
  let a = Region.alloc r 48 in
  let b = Region.alloc r 48 in
  Alcotest.(check int) "bump allocation is contiguous" (a + 48) b;
  Alcotest.(check bool) "contains" true (Region.contains r a);
  Alcotest.(check int) "objects" 2 (Region.allocated_objects r)

let test_region_grows () =
  let heap = Allocator.create () in
  let r = Region.create heap ~chunk_bytes:128 in
  ignore (Region.alloc r 100);
  ignore (Region.alloc r 100); (* second chunk *)
  Alcotest.(check int) "two chunks" 2 (List.length (Region.chunks r))

let test_region_reuse () =
  let heap = Allocator.create () in
  let r = Region.create heap ~chunk_bytes:512 in
  let a = Region.alloc r 64 in
  Region.release r a 64;
  let b = Region.alloc r 64 in
  Alcotest.(check int) "freed block reused" a b;
  (* Different size class: not reused. *)
  let c = Region.alloc r 32 in
  Region.release r c 32;
  let d = Region.alloc r 64 in
  Alcotest.(check bool) "size classes separate" true (d <> c)

let test_region_exhaustion () =
  let heap = Allocator.create () in
  let r = Region.create ~max_bytes:256 heap ~chunk_bytes:128 in
  ignore (Region.alloc r 100);
  ignore (Region.alloc r 100);
  (* cap reached: try_alloc degrades to None, alloc raises *)
  Alcotest.(check bool) "try_alloc exhausted" true (Region.try_alloc r 100 = None);
  (match Region.alloc r 100 with
  | _ -> Alcotest.fail "alloc past the cap succeeded"
  | exception Invalid_argument _ -> ());
  (* free-list hits still work at the cap *)
  let a = Region.alloc r 16 in
  Region.release r a 16;
  Alcotest.(check bool) "free-list reuse at cap" true (Region.try_alloc r 16 = Some a);
  Alcotest.(check bool) "cap counts chunk bytes" true (Region.chunk_bytes_total r <= 256)

let test_arena_double_occupy_release () =
  let heap = Allocator.create () in
  let arena =
    Arena.create heap
      [ { Arena.slot_offset = 0; slot_size = 64 };
        { Arena.slot_offset = 64; slot_size = 64 } ]
  in
  let slot = 1 in
  Arena.occupy arena slot;
  (match Arena.occupy arena slot with
  | () -> Alcotest.fail "double occupy succeeded"
  | exception Invalid_argument _ -> ());
  Arena.release arena slot;
  (match Arena.release arena slot with
  | () -> Alcotest.fail "double release succeeded"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "slot free again" true (Arena.is_free arena slot)

let test_region_dispose () =
  let heap = Allocator.create () in
  let before = Allocator.live_bytes heap in
  let r = Region.create heap ~chunk_bytes:256 in
  ignore (Region.alloc r 64);
  Region.dispose r;
  Alcotest.(check int) "chunks returned" before (Allocator.live_bytes heap)

let test_region_byte_accounting () =
  (* Regression: [release] decremented [allocated_objects] but never
     [allocated_bytes], and a free-list hit incremented objects but not
     bytes — the two counters drifted apart on any alloc/release cycle. *)
  let heap = Allocator.create () in
  let r = Region.create heap ~chunk_bytes:512 in
  let a = Region.alloc r 64 in
  Alcotest.(check int) "bytes after alloc" 64 (Region.allocated_bytes r);
  Region.release r a 64;
  Alcotest.(check int) "bytes return on release" 0 (Region.allocated_bytes r);
  Alcotest.(check int) "objects return on release" 0 (Region.allocated_objects r);
  (* A free-list hit must count exactly like a bump allocation. *)
  let b = Region.alloc r 64 in
  Alcotest.(check int) "free-list hit reused" a b;
  Alcotest.(check int) "bytes after free-list hit" 64 (Region.allocated_bytes r);
  Alcotest.(check int) "objects after free-list hit" 1 (Region.allocated_objects r);
  ignore (Region.alloc r 32);
  Alcotest.(check int) "bytes accumulate" 96 (Region.allocated_bytes r);
  Alcotest.(check int) "peak tracks the high-water mark" 96 (Region.peak_bytes r);
  Region.release r b 64;
  Alcotest.(check int) "release is symmetric" 32 (Region.allocated_bytes r);
  Alcotest.(check int) "peak survives releases" 96 (Region.peak_bytes r)

let test_region_release_charged_size () =
  (* Regression: [release] keyed the free list and the byte decrement
     off the caller-passed size.  After an in-region realloc-shrink the
     policy frees with the smaller size, so [allocated_bytes] drifted
     up by the difference and the block landed in the wrong size
     class.  The charge recorded at alloc time must win. *)
  let heap = Allocator.create () in
  let r = Region.create heap ~chunk_bytes:512 in
  let a = Region.alloc r 100 in
  Alcotest.(check int) "charged rounded size" 112 (Region.allocated_bytes r);
  (* the policy shrank the object to 40 bytes, then freed it *)
  Region.release r a 40;
  Alcotest.(check int) "release credits the charge, not the hint" 0
    (Region.allocated_bytes r);
  Alcotest.(check int) "objects zero" 0 (Region.allocated_objects r);
  (* the block went back to its true size class *)
  let b = Region.alloc r 100 in
  Alcotest.(check int) "reused from the charged class" a b;
  (* double release is a no-op, not a double-credit *)
  Region.release r b 100;
  Region.release r b 100;
  Alcotest.(check int) "double release no-op (objects)" 0 (Region.allocated_objects r);
  Alcotest.(check int) "double release no-op (bytes)" 0 (Region.allocated_bytes r);
  (* the address is on the free list exactly once *)
  let c = Region.alloc r 100 in
  let d = Region.alloc r 100 in
  Alcotest.(check int) "first alloc reuses" b c;
  Alcotest.(check bool) "second alloc bumps fresh" true (d <> c)

let prop_region_accounting =
  (* Random alloc/shrinking-release scripts against a live-set model:
     [allocated_bytes] is always the sum of live rounded sizes, and
     [peak_bytes] is a monotone high-water mark of it. *)
  QCheck.Test.make ~count:100 ~name:"region bytes = sum of live rounded sizes"
    QCheck.(small_list (pair bool (int_range 1 300)))
    (fun script ->
      let heap = Allocator.create () in
      let r = Region.create heap ~chunk_bytes:1024 in
      let round16 n = (n + 15) / 16 * 16 in
      let live = ref [] (* (addr, rounded size) newest first *) in
      let peak_seen = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          (if is_alloc || !live = [] then begin
             let addr = Region.alloc r size in
             live := (addr, round16 size) :: !live
           end
           else begin
             match !live with
             | (addr, sz) :: rest ->
               live := rest;
               (* free with a deliberately smaller size hint *)
               Region.release r addr (max 1 (sz / 2))
             | [] -> ()
           end);
          let expect = List.fold_left (fun a (_, s) -> a + s) 0 !live in
          if Region.allocated_bytes r <> expect then
            Alcotest.failf "bytes %d <> live sum %d" (Region.allocated_bytes r) expect;
          if Region.allocated_objects r <> List.length !live then
            Alcotest.fail "object count diverged";
          if Region.peak_bytes r < !peak_seen then Alcotest.fail "peak decreased";
          peak_seen := Region.peak_bytes r;
          if Region.peak_bytes r < Region.allocated_bytes r then
            Alcotest.fail "peak below live bytes")
        script;
      true)

(* ---- Baseline policy ---- *)

let test_baseline_costs () =
  let heap = Allocator.create () in
  let p = Policy.baseline costs heap in
  let addr = p.alloc ~obj:1 ~site:1 ~ctx:1 ~size:64 in
  p.dealloc ~obj:1 ~addr ~size:64;
  Alcotest.(check int) "malloc+free instructions"
    (costs.malloc_instrs + costs.free_instrs)
    p.stats.mgmt_instrs;
  Alcotest.(check int) "no captures" 0 p.stats.region_objects

(* ---- HDS policy ---- *)

let test_hds_policy_redirects_whole_site () =
  let heap = Allocator.create () in
  let cls = { Policy.is_hot = (fun o -> o = 1); is_hds = (fun o -> o = 1) } in
  let p = Hds_policy.policy costs heap { interesting_sites = [ 7 ] } cls in
  let a1 = p.alloc ~obj:1 ~site:7 ~ctx:7 ~size:32 in
  let a2 = p.alloc ~obj:2 ~site:7 ~ctx:7 ~size:32 in
  (* hot or not *)
  let a3 = p.alloc ~obj:3 ~site:8 ~ctx:8 ~size:32 in
  Alcotest.(check int) "site 7 objects adjacent in region" (a1 + 32) a2;
  Alcotest.(check int) "pollution counted" 2 p.stats.region_objects;
  Alcotest.(check int) "hot counted" 1 p.stats.region_hot_objects;
  p.dealloc ~obj:1 ~addr:a1 ~size:32;
  p.dealloc ~obj:3 ~addr:a3 ~size:32;
  p.finish ()

(* ---- HALO policy ---- *)

let test_halo_policy_signature_check () =
  let heap = Allocator.create () in
  let plan = { Prefix_halo.Halo.groups = [ [ 100 ]; [ 200; 201 ] ]; hot_ctxs = [ 100; 200; 201 ] } in
  let p = Halo_policy.policy costs heap plan Policy.no_classification in
  let a1 = p.alloc ~obj:1 ~site:1 ~ctx:100 ~size:32 in
  let a2 = p.alloc ~obj:2 ~site:2 ~ctx:100 ~size:32 in
  (* same signature, same pool *)
  let a3 = p.alloc ~obj:3 ~site:3 ~ctx:999 ~size:32 in
  (* unknown signature: heap *)
  Alcotest.(check int) "pool is bump-ordered" (a1 + 32) a2;
  Alcotest.(check int) "two captures" 2 p.stats.region_objects;
  p.dealloc ~obj:2 ~addr:a2 ~size:32;
  let a4 = p.alloc ~obj:4 ~site:2 ~ctx:100 ~size:32 in
  Alcotest.(check int) "pool free list reuses" a2 a4;
  p.dealloc ~obj:3 ~addr:a3 ~size:32;
  p.finish ()

(* ---- PreFix policy (Figures 4-7) ---- *)

let manual_plan ~pattern ~placements ~slots ~recycle =
  { Plan.variant = Plan.Hot;
    slots;
    region_bytes = List.fold_left (fun a (s : Prefix_core.Offsets.slot) -> a + s.size) 0 slots;
    site_counter = [ (1, 0) ];
    counters =
      [ { Plan.counter = 0; counter_sites = [ 1 ]; pattern; placements; recycle;
          required_ctx = None } ];
    placed_objects = [];
    profile =
      { hot_count = 0; hds_count = 0; heap_access_share = 0.; ohds_count = 0; rhds_count = 0 } }

let slot offset size : Prefix_core.Offsets.slot = { offset; size }

let test_prefix_places_matching_instance () =
  let heap = Allocator.create () in
  let plan =
    manual_plan
      ~pattern:(Context.Fixed [ 2 ])
      ~placements:[ (2, 0) ]
      ~slots:[ slot 0 64 ] ~recycle:None
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  let a1 = p.alloc ~obj:1 ~site:1 ~ctx:1 ~size:32 in
  (* instance 1: cold *)
  let a2 = p.alloc ~obj:2 ~site:1 ~ctx:1 ~size:32 in
  (* instance 2: hot *)
  let a3 = p.alloc ~obj:3 ~site:1 ~ctx:1 ~size:32 in
  Alcotest.(check bool) "instance 1 on heap" false (Arena.contains arena a1);
  Alcotest.(check int) "instance 2 at its predetermined spot" (Arena.slot_addr arena 0) a2;
  Alcotest.(check bool) "instance 3 on heap" false (Arena.contains arena a3);
  Alcotest.(check int) "one call avoided" 1 p.stats.calls_avoided;
  p.finish ()

let test_prefix_size_check () =
  (* Figure 4: "ObjectSize <= PreallocSize" — oversize falls back. *)
  let heap = Allocator.create () in
  let plan =
    manual_plan ~pattern:(Context.Fixed [ 1 ]) ~placements:[ (1, 0) ]
      ~slots:[ slot 0 32 ] ~recycle:None
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  let a = p.alloc ~obj:1 ~site:1 ~ctx:1 ~size:100 in
  Alcotest.(check bool) "oversize object on heap" false (Arena.contains arena a);
  p.finish ()

let test_prefix_free_interception () =
  (* Figure 5: freeing a preallocated object only marks the slot. *)
  let heap = Allocator.create () in
  let plan =
    manual_plan ~pattern:(Context.Fixed [ 1 ]) ~placements:[ (1, 0) ]
      ~slots:[ slot 0 64 ] ~recycle:None
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  let a = p.alloc ~obj:1 ~site:1 ~ctx:1 ~size:64 in
  let frees_before = Allocator.free_calls heap in
  p.dealloc ~obj:1 ~addr:a ~size:64;
  Alcotest.(check int) "no heap free issued" frees_before (Allocator.free_calls heap);
  Alcotest.(check bool) "slot marked free" true (Arena.is_free arena 0);
  p.finish ()

let test_prefix_realloc_in_place_and_move () =
  (* Figure 6: fits -> same address; grows past the slot -> move out. *)
  let heap = Allocator.create () in
  let plan =
    manual_plan ~pattern:(Context.Fixed [ 1 ]) ~placements:[ (1, 0) ]
      ~slots:[ slot 0 64 ] ~recycle:None
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  let a = p.alloc ~obj:1 ~site:1 ~ctx:1 ~size:32 in
  Alcotest.(check int) "grow within slot stays" a (p.realloc ~obj:1 ~addr:a ~old_size:32 ~new_size:64);
  let b = p.realloc ~obj:1 ~addr:a ~old_size:64 ~new_size:128 in
  Alcotest.(check bool) "moved out" false (Arena.contains arena b);
  Alcotest.(check bool) "slot released" true (Arena.is_free arena 0);
  p.finish ()

let test_prefix_recycling_modulo () =
  (* Figure 7: ids map onto the block modulo N; occupied slots fall back. *)
  let heap = Allocator.create () in
  let plan =
    manual_plan
      ~pattern:(Context.All { upto = None })
      ~placements:[]
      ~slots:[ slot 0 64; slot 64 64 ]
      ~recycle:(Some { Plan.first_slot = 0; n_slots = 2; slot_bytes = 64; assignment = [] })
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  let a1 = p.alloc ~obj:1 ~site:1 ~ctx:1 ~size:48 in
  let a2 = p.alloc ~obj:2 ~site:1 ~ctx:1 ~size:48 in
  Alcotest.(check int) "slot 0" (Arena.slot_addr arena 0) a1;
  Alcotest.(check int) "slot 1" (Arena.slot_addr arena 1) a2;
  (* Both slots live: the third allocation must fall back to the heap. *)
  let a3 = p.alloc ~obj:3 ~site:1 ~ctx:1 ~size:48 in
  Alcotest.(check bool) "overflow to heap" false (Arena.contains arena a3);
  (* Free slot 0 (id 4 maps to slot 1, id 5 maps to slot 0 again). *)
  p.dealloc ~obj:1 ~addr:a1 ~size:48;
  let a4 = p.alloc ~obj:4 ~site:1 ~ctx:1 ~size:48 in
  Alcotest.(check bool) "id 4 wants busy slot 1 -> heap" false (Arena.contains arena a4);
  let a5 = p.alloc ~obj:5 ~site:1 ~ctx:1 ~size:48 in
  Alcotest.(check int) "id 5 recycles slot 0" (Arena.slot_addr arena 0) a5;
  p.dealloc ~obj:3 ~addr:a3 ~size:48;
  p.dealloc ~obj:4 ~addr:a4 ~size:48;
  p.finish ()

let test_prefix_uninstrumented_site () =
  let heap = Allocator.create () in
  let plan =
    manual_plan ~pattern:(Context.Fixed [ 1 ]) ~placements:[ (1, 0) ]
      ~slots:[ slot 0 64 ] ~recycle:None
  in
  let p = Prefix_policy.policy costs heap plan Policy.no_classification in
  let arena = Option.get (Prefix_policy.arena_of p) in
  let a = p.alloc ~obj:1 ~site:99 ~ctx:99 ~size:32 in
  Alcotest.(check bool) "other sites untouched" false (Arena.contains arena a);
  p.finish ()

(* ---- Executor ---- *)

let toy_trace () =
  let b = B.create ~seed:1 () in
  let o = B.alloc b ~site:1 64 in
  for _ = 1 to 10 do
    B.access b o 0;
    B.compute b 20
  done;
  B.free b o;
  B.trace b

let test_executor_baseline_metrics () =
  let outcome = Replay.trace ~policy:Replay.baseline (toy_trace ()) in
  let m = outcome.metrics in
  Alcotest.(check int) "refs" 10 m.mem_refs;
  Alcotest.(check int) "one malloc" 1 m.malloc_calls;
  Alcotest.(check int) "one free" 1 m.free_calls;
  Alcotest.(check int) "instructions include program + management"
    (10 + 200 + costs.malloc_instrs + costs.free_instrs)
    m.instructions;
  Alcotest.(check bool) "cycles positive" true (m.cycles.total_cycles > 0.);
  Alcotest.(check int) "threads" 1 m.threads

let test_executor_rejects_invalid () =
  let bad =
    Trace.of_list [ Prefix_trace.Event.Access { obj = 5; offset = 0; write = false; thread = 0 } ]
  in
  Alcotest.check_raises "unknown object"
    (Invalid_argument "Executor: access to unknown object 5") (fun () ->
      ignore (Replay.trace ~policy:Replay.baseline bad))

let test_executor_multithreaded () =
  let b = B.create ~seed:2 () in
  let o = B.alloc b ~site:1 64 in
  for t = 0 to 3 do
    B.set_thread b t;
    for _ = 1 to 25 do
      B.access b o 0
    done
  done;
  B.set_thread b 0;
  B.free b o;
  let outcome = Replay.trace ~policy:Replay.baseline (B.trace b) in
  Alcotest.(check int) "four threads seen" 4 outcome.metrics.threads;
  Alcotest.(check int) "all refs counted" 100 outcome.metrics.mem_refs

let test_executor_prefix_end_to_end () =
  (* An optimized run of a hot-trio trace beats the baseline. *)
  let b = B.create ~seed:3 () in
  let hot =
    List.init 8 (fun _ ->
        let o = B.alloc b ~site:1 32 in
        ignore (Prefix_workloads.Patterns.cold_block b ~site:9 ~size:512 2);
        o)
  in
  for _ = 1 to 300 do
    List.iter (fun o -> B.access b o 0) hot
  done;
  let trace = B.trace b in
  let plan = Pipeline.plan ~variant:Plan.Hot trace in
  let base = Replay.trace ~policy:Replay.baseline trace in
  let opt =
    Replay.trace
      ~policy:(fun heap -> Prefix_policy.policy costs heap plan Policy.no_classification)
      trace
  in
  Alcotest.(check bool) "optimized is faster" true
    (opt.metrics.cycles.total_cycles < base.metrics.cycles.total_cycles);
  Alcotest.(check int) "all hot captured" 8 opt.metrics.region_objects

let test_executor_heatmap () =
  let outcome =
    Replay.trace ~heatmap_objs:(fun _ -> true) ~policy:Replay.baseline (toy_trace ())
  in
  match outcome.heatmap with
  | Some h -> Alcotest.(check int) "samples" 10 (Prefix_cachesim.Heatmap.samples h)
  | None -> Alcotest.fail "expected heatmap"

(* ---- realloc paths of the baselines ---- *)

let test_hds_policy_realloc_paths () =
  let heap = Allocator.create () in
  let p = Hds_policy.policy costs heap { interesting_sites = [ 7 ] } Policy.no_classification in
  let a = p.alloc ~obj:1 ~site:7 ~ctx:7 ~size:64 in
  (* shrink inside the region stays put *)
  Alcotest.(check int) "shrink in region" a (p.realloc ~obj:1 ~addr:a ~old_size:64 ~new_size:32);
  (* growth moves out of the region to the heap *)
  let b = p.realloc ~obj:1 ~addr:a ~old_size:64 ~new_size:256 in
  Alcotest.(check bool) "moved to heap" true (Allocator.is_allocated heap b);
  (* heap-object realloc behaves normally *)
  let h = p.alloc ~obj:2 ~site:9 ~ctx:9 ~size:32 in
  let h' = p.realloc ~obj:2 ~addr:h ~old_size:32 ~new_size:512 in
  Alcotest.(check (option int)) "resized" (Some 512) (Allocator.block_size heap h');
  p.dealloc ~obj:1 ~addr:b ~size:256;
  p.dealloc ~obj:2 ~addr:h' ~size:512;
  p.finish ()

let test_halo_policy_realloc_paths () =
  let heap = Allocator.create () in
  let plan = { Prefix_halo.Halo.groups = [ [ 100 ] ]; hot_ctxs = [ 100 ] } in
  let p = Halo_policy.policy costs heap plan Policy.no_classification in
  let a = p.alloc ~obj:1 ~site:1 ~ctx:100 ~size:64 in
  Alcotest.(check int) "shrink in pool" a (p.realloc ~obj:1 ~addr:a ~old_size:64 ~new_size:48);
  let b = p.realloc ~obj:1 ~addr:a ~old_size:64 ~new_size:1024 in
  Alcotest.(check bool) "outgrown pool object moves to heap" true
    (Allocator.is_allocated heap b);
  p.dealloc ~obj:1 ~addr:b ~size:1024;
  p.finish ()

(* ---- Attribution ---- *)

let test_attribution () =
  let b = B.create ~seed:4 () in
  (* two sites: one pounded over an L1-overflowing working set, one cold *)
  let hot = List.init 300 (fun _ -> B.alloc b ~site:1 64) in
  let cold = B.alloc b ~site:2 64 in
  B.access b cold 0;
  for _ = 1 to 5 do
    List.iter (fun o -> B.access b o 0) hot
  done;
  let outcome = Replay.trace ~attribute:true ~policy:Replay.baseline (B.trace b) in
  match outcome.attribution with
  | None -> Alcotest.fail "expected attribution"
  | Some a ->
    Alcotest.(check int) "total refs" outcome.metrics.mem_refs
      (Prefix_runtime.Attribution.total_accesses a);
    (match Prefix_runtime.Attribution.top ~n:1 a with
    | [ top ] ->
      Alcotest.(check int) "hot site dominates" 1 top.site;
      Alcotest.(check int) "its accesses" 1500 top.accesses;
      Alcotest.(check bool) "it misses (300 lines > L1)" true (top.l1_misses > 500)
    | _ -> Alcotest.fail "no top site");
    Alcotest.(check bool) "renders" true
      (String.length (Prefix_runtime.Attribution.render a) > 0)

let test_attribution_off_by_default () =
  let b = B.create ~seed:5 () in
  let o = B.alloc b ~site:1 64 in
  B.access b o 0;
  B.free b o;
  let outcome = Replay.trace ~policy:Replay.baseline (B.trace b) in
  Alcotest.(check bool) "absent" true (outcome.attribution = None)

let suite =
  [ ( "region",
      [ Alcotest.test_case "bump" `Quick test_region_bump;
        Alcotest.test_case "grows" `Quick test_region_grows;
        Alcotest.test_case "free-list reuse" `Quick test_region_reuse;
        Alcotest.test_case "exhaustion" `Quick test_region_exhaustion;
        Alcotest.test_case "arena double occupy/release" `Quick
          test_arena_double_occupy_release;
        Alcotest.test_case "dispose" `Quick test_region_dispose;
        Alcotest.test_case "byte accounting" `Quick test_region_byte_accounting;
        Alcotest.test_case "release uses charged size" `Quick
          test_region_release_charged_size;
        QCheck_alcotest.to_alcotest prop_region_accounting ] );
    ( "policies",
      [ Alcotest.test_case "baseline costs" `Quick test_baseline_costs;
        Alcotest.test_case "HDS redirects whole site" `Quick test_hds_policy_redirects_whole_site;
        Alcotest.test_case "HALO signature check" `Quick test_halo_policy_signature_check;
        Alcotest.test_case "HDS realloc paths" `Quick test_hds_policy_realloc_paths;
        Alcotest.test_case "HALO realloc paths" `Quick test_halo_policy_realloc_paths;
        Alcotest.test_case "PreFix places matching instance" `Quick
          test_prefix_places_matching_instance;
        Alcotest.test_case "PreFix size check" `Quick test_prefix_size_check;
        Alcotest.test_case "PreFix free interception" `Quick test_prefix_free_interception;
        Alcotest.test_case "PreFix realloc" `Quick test_prefix_realloc_in_place_and_move;
        Alcotest.test_case "PreFix recycling modulo" `Quick test_prefix_recycling_modulo;
        Alcotest.test_case "PreFix other sites" `Quick test_prefix_uninstrumented_site ] );
    ( "executor",
      [ Alcotest.test_case "baseline metrics" `Quick test_executor_baseline_metrics;
        Alcotest.test_case "rejects invalid" `Quick test_executor_rejects_invalid;
        Alcotest.test_case "multithreaded" `Quick test_executor_multithreaded;
        Alcotest.test_case "prefix end to end" `Quick test_executor_prefix_end_to_end;
        Alcotest.test_case "heatmap" `Quick test_executor_heatmap;
        Alcotest.test_case "attribution" `Quick test_attribution;
        Alcotest.test_case "attribution off by default" `Quick
          test_attribution_off_by_default ] ) ]
