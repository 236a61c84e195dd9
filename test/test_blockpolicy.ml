(* Tests for the interval-colored block policy layer: Blockalloc state
   transitions, line-granular reclamation, hole reuse and exact byte
   accounting, a differential check of the liveness-interval
   extraction against a naive O(n^2) oracle — over clean, corrupted
   and id-reusing traces — and the footprint invariants of the Block
   policy and of interval-colored recycling slots. *)

module Allocator = Prefix_heap.Allocator
module Blockalloc = Prefix_blockpolicy.Blockalloc
module Intervals = Prefix_core.Intervals
module Trace = Prefix_trace.Trace
module Event = Prefix_trace.Event
module Injector = Prefix_faults.Injector
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Block_policy = Prefix_runtime.Block_policy
module Pipeline = Prefix_core.Pipeline

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* Tiny geometry so every transition is reachable in a few allocations:
   1 KiB blocks of four 256 B lines; one free line recycles. *)
let tiny =
  { Blockalloc.block_bytes = 1024;
    line_bytes = 256;
    recycle_free_lines = 0.25;
    max_bytes = None }

let test_block_states () =
  let heap = Allocator.create () in
  let t = Blockalloc.create ~config:tiny heap in
  check ci "no blocks yet" 0 (Blockalloc.block_count t);
  let addrs = Array.init 4 (fun _ -> Blockalloc.alloc t 256) in
  check ci "one block" 1 (Blockalloc.block_count t);
  check ci "live bytes exact" 1024 (Blockalloc.live_bytes t);
  check cb "bump is contiguous" true
    (Array.for_all (fun i -> addrs.(i) = addrs.(0) + (256 * i)) [| 0; 1; 2; 3 |]);
  (* a fifth object forces a second block; the first retires Full *)
  let b2 = Blockalloc.alloc t 256 in
  check ci "second block acquired" 2 (Blockalloc.blocks_acquired t);
  let free, recycled, full = Blockalloc.state_counts t in
  check ci "old block full" 1 full;
  check ci "no recycled yet" 0 recycled;
  check ci "current block free-queue state" 1 free;
  (* releasing one line of the Full block crosses the 25% threshold *)
  Blockalloc.release t addrs.(1);
  check ci "line reclaimed" 1 (Blockalloc.lines_reclaimed t);
  let _, recycled, full = Blockalloc.state_counts t in
  check ci "full -> recycled" 1 recycled;
  check ci "no full left" 0 full;
  (* draining the rest of the old block frees it outright *)
  Blockalloc.release t addrs.(0);
  Blockalloc.release t addrs.(2);
  Blockalloc.release t addrs.(3);
  let free, recycled, _ = Blockalloc.state_counts t in
  check ci "whole block free again" 2 free;
  check ci "recycled queue drained" 0 recycled;
  check ci "only the new object lives" 256 (Blockalloc.live_bytes t);
  check ci "peak was the full block plus one" (1024 + 256) (Blockalloc.peak_bytes t);
  check cb "survivor still live" true (Blockalloc.contains t b2);
  Blockalloc.dispose t

let test_block_hole_reuse () =
  let heap = Allocator.create () in
  let t = Blockalloc.create ~config:tiny heap in
  (* fill two blocks completely *)
  let a = Array.init 8 (fun _ -> Blockalloc.alloc t 256) in
  check ci "two blocks" 2 (Blockalloc.block_count t);
  (* punch a hole in the first (now Full) block *)
  Blockalloc.release t a.(1);
  (* the current block is full too, so the next allocation must come
     from the recycled block's hole — the exact freed line *)
  let n = Blockalloc.alloc t 200 in
  check ci "hole reused at the freed line" a.(1) n;
  check cb "hole reuse counted" true (Blockalloc.holes_reused t >= 1);
  check ci "charged rounded size" 208
    (Option.value ~default:0 (Blockalloc.charged_size t n));
  (* same hole cannot be handed out twice *)
  let m = Blockalloc.alloc t 256 in
  check cb "no double booking" true (m <> n);
  check ci "three blocks after holes exhausted" 3 (Blockalloc.block_count t);
  Blockalloc.dispose t

let test_block_guards () =
  let heap = Allocator.create () in
  let t = Blockalloc.create ~config:{ tiny with max_bytes = Some 1024 } heap in
  (* oversize requests are refused, not split across blocks *)
  check cb "oversize refused" true (Blockalloc.try_alloc t 2048 = None);
  let a = Blockalloc.alloc t 256 in
  ignore (Blockalloc.alloc t 768);
  (* cap reached and the block is full: degradation path *)
  check cb "exhausted under cap" true (Blockalloc.try_alloc t 256 = None);
  (* release then double release: the second must raise, and the first
     must have already credited the bytes *)
  Blockalloc.release t a;
  check ci "credit on release" 768 (Blockalloc.live_bytes t);
  (match Blockalloc.release t a with
  | () -> Alcotest.fail "double release succeeded"
  | exception Invalid_argument _ -> ());
  check ci "double release did not double-credit" 768 (Blockalloc.live_bytes t);
  check cb "freed addr no longer live" true (not (Blockalloc.contains t a));
  check cb "but still in block range" true (Blockalloc.in_range t a);
  (* the freed line is reusable within the cap *)
  check cb "free-list style reuse at cap" true (Blockalloc.try_alloc t 256 = Some a);
  Blockalloc.dispose t

(* Random alloc/release scripts against a live-set model: global and
   per-block accounting agree with the model after every operation. *)
let prop_block_accounting =
  QCheck.Test.make ~count:80 ~name:"blockalloc accounting matches live-set model"
    QCheck.(list_of_size Gen.(int_range 1 120) (pair bool (int_range 1 600)))
    (fun script ->
      let heap = Allocator.create () in
      let t = Blockalloc.create ~config:tiny heap in
      let round16 n = (n + 15) / 16 * 16 in
      let live = ref [] in
      let peak_seen = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          (if is_alloc || !live = [] then begin
             match Blockalloc.try_alloc t size with
             | Some addr -> live := (addr, round16 size) :: !live
             | None -> Alcotest.fail "uncapped allocator refused a fitting size"
           end
           else begin
             match !live with
             | (addr, _) :: rest ->
               live := rest;
               Blockalloc.release t addr
             | [] -> ()
           end);
          let expect_bytes = List.fold_left (fun a (_, s) -> a + s) 0 !live in
          if Blockalloc.live_bytes t <> expect_bytes then
            Alcotest.failf "live bytes %d <> model %d" (Blockalloc.live_bytes t)
              expect_bytes;
          if Blockalloc.live_objects t <> List.length !live then
            Alcotest.fail "live object count diverged";
          (* per-block stats roll up to the global totals *)
          let sum_objs, sum_bytes =
            List.fold_left
              (fun (o, b) (_, _, bo, bb, _) -> (o + bo, b + bb))
              (0, 0) (Blockalloc.block_stats t)
          in
          if sum_objs <> List.length !live || sum_bytes <> expect_bytes then
            Alcotest.fail "per-block stats disagree with totals";
          if Blockalloc.peak_bytes t < !peak_seen then Alcotest.fail "peak decreased";
          peak_seen := Blockalloc.peak_bytes t;
          if Blockalloc.peak_bytes t < Blockalloc.live_bytes t then
            Alcotest.fail "peak below live bytes")
        script;
      Blockalloc.dispose t;
      true)

(* ---- liveness-interval extraction vs naive oracle ---- *)

(* O(n^2) reference: for each Alloc, scan forward to the next Alloc of
   the same id (exclusive), tracking last touch, max size and whether a
   Free closed it; events after the Free are ignored, like the
   extractor's lenient handling of duplicate frees and use-after-free. *)
let oracle events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let incarnations = Hashtbl.create 16 in
  let out = ref [] in
  for i = 0 to n - 1 do
    match arr.(i) with
    | Event.Alloc { obj; site; ctx; size; _ } ->
      let inc = 1 + Option.value ~default:0 (Hashtbl.find_opt incarnations obj) in
      Hashtbl.replace incarnations obj inc;
      let stop = ref i and freed = ref false and sz = ref size in
      let j = ref (i + 1) in
      let scanning = ref true in
      while !scanning && !j < n do
        (match arr.(!j) with
        | Event.Alloc a when a.obj = obj -> scanning := false
        | Event.Access a when a.obj = obj && not !freed -> stop := !j
        | Event.Realloc r when r.obj = obj && not !freed ->
          stop := !j;
          sz := max !sz r.new_size
        | Event.Free f when f.obj = obj && not !freed ->
          stop := !j;
          freed := true
        | _ -> ());
        if !scanning then incr j
      done;
      out :=
        { Intervals.iv_obj = obj;
          iv_site = site;
          iv_ctx = ctx;
          iv_size = !sz;
          iv_incarnation = inc;
          iv_start = i;
          iv_stop = !stop;
          iv_freed = !freed }
        :: !out
    | _ -> ()
  done;
  List.rev !out

let check_against_oracle events =
  let got = Array.to_list (Intervals.intervals (Intervals.of_trace (Trace.of_list events))) in
  let want = oracle events in
  if List.length got <> List.length want then
    Alcotest.failf "interval count %d <> oracle %d" (List.length got) (List.length want);
  List.iter2
    (fun (g : Intervals.interval) (w : Intervals.interval) ->
      if g <> w then
        Alcotest.failf
          "interval mismatch: got obj=%d inc=%d [%d,%d] freed=%b size=%d, oracle \
           obj=%d inc=%d [%d,%d] freed=%b size=%d"
          g.iv_obj g.iv_incarnation g.iv_start g.iv_stop g.iv_freed g.iv_size w.iv_obj
          w.iv_incarnation w.iv_start w.iv_stop w.iv_freed w.iv_size)
    got want

(* Unconstrained event scripts: ids collide while live, frees arrive
   early, twice or never, accesses touch dead objects — the corrupted
   space the lenient pipeline replays. *)
let gen_events =
  let open QCheck.Gen in
  let ev =
    frequency
      [ (4, map2 (fun obj size ->
              Event.Alloc { obj; site = obj mod 4; ctx = obj mod 3; size; thread = 0 })
            (int_range 0 7) (int_range 1 256));
        (4, map (fun obj -> Event.Access { obj; offset = 0; write = false; thread = 0 })
            (int_range 0 7));
        (2, map (fun obj -> Event.Free { obj; thread = 0 }) (int_range 0 7));
        (1, map2 (fun obj new_size -> Event.Realloc { obj; new_size; thread = 0 })
            (int_range 0 7) (int_range 1 512));
        (1, map (fun instrs -> Event.Compute { instrs; thread = 0 }) (int_range 1 50)) ]
  in
  list_size (int_range 0 300) ev

let prop_intervals_differential =
  QCheck.Test.make ~count:200 ~name:"interval extraction matches O(n^2) oracle"
    (QCheck.make gen_events)
    (fun events ->
      check_against_oracle events;
      true)

(* The same differential over a real workload trace and its
   injector-corrupted variants (every fault kind). *)
let test_intervals_oracle_on_workload () =
  let wl = Prefix_workloads.Registry.find "mcf" in
  let trace = wl.generate ~scale:Profiling ~seed:11 () in
  let events =
    List.filteri (fun i _ -> i < 1500) (Trace.to_list trace)
  in
  check_against_oracle events;
  List.iter
    (fun kind ->
      let corrupted = Injector.inject kind ~seed:3 ~rate:0.05 (Trace.of_list events) in
      check_against_oracle (Trace.to_list corrupted))
    Injector.all_kinds

(* Reused ids produce one interval per incarnation, and the pinned
   coloring never shares a never-freed object's slot. *)
let test_intervals_incarnations () =
  let events =
    [ Event.Alloc { obj = 1; site = 5; ctx = 0; size = 32; thread = 0 };
      Event.Access { obj = 1; offset = 0; write = false; thread = 0 };
      Event.Alloc { obj = 1; site = 5; ctx = 0; size = 48; thread = 0 };
      (* reuse while live *)
      Event.Free { obj = 1; thread = 0 };
      Event.Alloc { obj = 1; site = 5; ctx = 0; size = 64; thread = 0 } ]
  in
  check_against_oracle events;
  let ivs = Intervals.intervals (Intervals.of_trace (Trace.of_list events)) in
  check ci "one interval per incarnation" 3 (Array.length ivs);
  check (Alcotest.list ci) "incarnations numbered in order" [ 1; 2; 3 ]
    (Array.to_list (Array.map (fun iv -> iv.Intervals.iv_incarnation) ivs));
  check cb "reuse closes unfreed" true (not ivs.(0).Intervals.iv_freed);
  check cb "free closes second" true ivs.(1).Intervals.iv_freed;
  (* Pinning: the first incarnation was never freed, so its slot stays
     private; the second was freed before the third allocated, so the
     third reuses exactly its slot. *)
  let assignment =
    Intervals.slot_assignment (Intervals.of_trace (Trace.of_list events)) ~sites:[ 5 ]
      ~n_slots:4 ()
  in
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pinned coloring: unfreed slot private, freed slot reused"
    [ (1, 0); (2, 1); (3, 1) ] assignment

(* ---- footprint invariants of the placement policies ---- *)

(* Replays [trace] under baseline, the Block policy, and PreFix:HDS+Hot
   planned from [trace] with modulo slots and with interval slots, in
   one fan-out.  Returns the four replays' memory references and the
   two PreFix replays' recycling evictions. *)
let slot_mode_replays trace =
  let costs = Executor.default_config.costs in
  let cls = Policy.no_classification in
  let packed = Prefix_trace.Packed.of_trace trace in
  let stats = Prefix_trace.Trace_stats.analyze_packed packed in
  let prefix slot_mode =
    let config = { Pipeline.default_config with slot_mode } in
    let plan = Pipeline.plan_with_stats ~config ~variant:Prefix_core.Plan.HdsHot stats trace in
    fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan cls
  in
  let block_plan = Block_policy.plan_of_trace trace in
  (* Each constructor records its policy, for the recycling evictions. *)
  let built = ref [] in
  let recorded mk heap =
    let pol = mk heap in
    built := pol :: !built;
    pol
  in
  let outcomes =
    Executor.run_stream_many
      ~policies:
        (List.map recorded
           [ Policy.baseline costs;
             (fun heap -> Block_policy.policy costs heap block_plan cls);
             prefix Pipeline.Modulo;
             prefix Pipeline.Interval ])
      (Replay.whole packed)
  in
  match List.rev !built with
  | [ _; _; modulo; interval ] ->
    ( List.map (fun (o : Executor.outcome) -> o.metrics.mem_refs) outcomes,
      modulo.Policy.stats.recycle_evictions,
      interval.Policy.stats.recycle_evictions )
  | _ -> assert false

(* Placement never changes the memory-reference stream, and interval
   coloring never evicts more than modulo-N does. *)
let test_slot_modes_on_workloads () =
  List.iter
    (fun name ->
      let wl = Prefix_workloads.Registry.find name in
      let refs, mod_ev, int_ev = slot_mode_replays (wl.generate ~scale:Profiling ~seed:7 ()) in
      check (Alcotest.list ci) (name ^ ": mem_refs of baseline, Block, modulo, interval")
        (List.map (fun _ -> List.hd refs) refs)
        refs;
      check cb (name ^ ": interval evicts no more than modulo") true (int_ev <= mod_ev))
    [ "roms"; "swissmap" ]

(* One site: an instance that stays live to the end, then 120 instances
   each freed right after the next one is allocated, with 20 accesses
   to each new instance and 20 to the pinned one.  At most three objects
   are live, so recycling gets 4 slots and modulo-N maps every fourth
   instance onto the pinned instance's slot, where it falls back to
   malloc; interval coloring keeps that slot private. *)
let test_pinned_slot () =
  let alloc obj = Event.Alloc { obj; site = 1; ctx = 1; size = 64; thread = 0 } in
  let touch obj =
    List.init 20 (fun _ -> Event.Access { obj; offset = 0; write = false; thread = 0 })
  in
  let step i =
    (alloc i :: (if i > 1 then [ Event.Free { obj = i - 1; thread = 0 } ] else []))
    @ touch i @ touch 0
  in
  let trace = Trace.of_list (alloc 0 :: List.concat_map step (List.init 120 succ)) in
  let refs, mod_ev, int_ev = slot_mode_replays trace in
  check (Alcotest.list ci) "mem_refs of baseline, Block, modulo, interval"
    [ 4800; 4800; 4800; 4800 ] refs;
  check cb "modulo evicts" true (mod_ev > 0);
  check ci "interval evicts nothing" 0 int_ev

let suite =
  [ ( "blockalloc",
      [ Alcotest.test_case "state transitions" `Quick test_block_states;
        Alcotest.test_case "hole reuse" `Quick test_block_hole_reuse;
        Alcotest.test_case "guards and double release" `Quick test_block_guards;
        QCheck_alcotest.to_alcotest prop_block_accounting ] );
    ( "intervals",
      [ QCheck_alcotest.to_alcotest prop_intervals_differential;
        Alcotest.test_case "oracle on workload + injected faults" `Quick
          test_intervals_oracle_on_workload;
        Alcotest.test_case "per-incarnation reuse" `Quick test_intervals_incarnations ] );
    ( "slot-modes",
      [ Alcotest.test_case "footprint invariants on roms and swissmap" `Quick
          test_slot_modes_on_workloads;
        Alcotest.test_case "interval coloring keeps a pinned slot private" `Quick
          test_pinned_slot ] ) ]
