module Allocator = Prefix_heap.Allocator
module Trace = Prefix_trace.Trace
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Cache = Prefix_cachesim.Cache
module Hierarchy = Prefix_cachesim.Hierarchy
module Cycles = Prefix_cachesim.Cycles
module Heatmap = Prefix_cachesim.Heatmap
module Obs = Prefix_obs.Control
module Span = Prefix_obs.Span
module Metric = Prefix_obs.Metric
module Recorder = Prefix_obs.Recorder
module Log = (val Logs.src_log Prefix_obs.Log.executor)

type config = {
  hierarchy : Hierarchy.config;
  cycle_params : Cycles.params;
  costs : Costs.t;
}

let default_config =
  { hierarchy = Hierarchy.scaled_config;
    cycle_params = Cycles.default_params;
    costs = Costs.default }

type recovery = {
  double_allocs : int;
  unknown_accesses : int;
  unknown_frees : int;
  unknown_reallocs : int;
  invalid_sizes : int;
  policy_failures : int;
}

let no_recovery =
  { double_allocs = 0;
    unknown_accesses = 0;
    unknown_frees = 0;
    unknown_reallocs = 0;
    invalid_sizes = 0;
    policy_failures = 0 }

let recovery_total r =
  r.double_allocs + r.unknown_accesses + r.unknown_frees + r.unknown_reallocs
  + r.invalid_sizes + r.policy_failures

let pp_recovery ppf r =
  Format.fprintf ppf
    "double-allocs %d, unknown accesses %d, unknown frees %d, unknown reallocs %d, \
     invalid sizes %d, policy failures %d"
    r.double_allocs r.unknown_accesses r.unknown_frees r.unknown_reallocs r.invalid_sizes
    r.policy_failures

type outcome = {
  metrics : Metrics.t;
  heatmap : Heatmap.t option;
  attribution : Attribution.t option;
  recovery : recovery;
}

(* Per-thread private L1 + TLBs, shared LLC. *)
type mem_system = {
  cfg : Hierarchy.config;
  llc : Cache.t;
  mutable l1s : Cache.t array; (* indexed by dense thread index *)
  mutable l1_tlbs : Cache.t array;
  mutable l2_tlbs : Cache.t array;
  thread_index : (int, int) Hashtbl.t;
}

let mem_create cfg =
  { cfg;
    llc =
      Cache.create ~name:"LLC" ~size_bytes:cfg.Hierarchy.llc_size ~assoc:cfg.llc_assoc
        ~line_bytes:cfg.line_bytes ();
    l1s = [||];
    l1_tlbs = [||];
    l2_tlbs = [||];
    thread_index = Hashtbl.create 4 }

let thread_slot m thread =
  match Hashtbl.find_opt m.thread_index thread with
  | Some i -> i
  | None ->
    let i = Array.length m.l1s in
    Hashtbl.replace m.thread_index thread i;
    let cfg = m.cfg in
    m.l1s <-
      Array.append m.l1s
        [| Cache.create ~name:"L1D" ~size_bytes:cfg.l1_size ~assoc:cfg.l1_assoc
             ~line_bytes:cfg.line_bytes () |];
    m.l1_tlbs <-
      Array.append m.l1_tlbs
        [| Cache.create_entries ~name:"L1TLB" ~entries:cfg.l1_tlb_entries
             ~assoc:cfg.l1_tlb_assoc ~page_bytes:cfg.page_bytes () |];
    m.l2_tlbs <-
      Array.append m.l2_tlbs
        [| Cache.create_entries ~name:"L2TLB" ~entries:cfg.l2_tlb_entries
             ~assoc:cfg.l2_tlb_assoc ~page_bytes:cfg.page_bytes () |];
    i

(* Returns (l1_miss, llc_miss, tlb1_miss) for attribution. *)
let mem_access m thread ~write addr =
  let i = thread_slot m thread in
  let l1_hit = Cache.probe m.l1s.(i) ~write addr in
  let llc_miss = if l1_hit then false else not (Cache.probe m.llc ~write addr) in
  let tlb1_hit = Cache.probe m.l1_tlbs.(i) ~write:false addr in
  if not tlb1_hit then ignore (Cache.probe m.l2_tlbs.(i) ~write:false addr);
  (not l1_hit, llc_miss, not tlb1_hit)

let mem_counters m : Hierarchy.counters =
  let sum f arr = Array.fold_left (fun acc c -> acc + f c) 0 arr in
  { refs = sum Cache.accesses m.l1s;
    l1_misses = sum Cache.misses m.l1s;
    llc_misses = Cache.misses m.llc;
    l1_tlb_misses = sum Cache.misses m.l1_tlbs;
    l2_tlb_misses = sum Cache.misses m.l2_tlbs;
    writebacks = Cache.writebacks m.llc }

let record_metrics ~(p : Policy.t) heap ~events counters ~mem_refs ~elapsed_ns =
  Metric.add (Metric.counter "executor.events_replayed") events;
  Metric.add (Metric.counter "executor.mem_refs") mem_refs;
  Metric.add (Metric.counter "executor.l1_misses") counters.Hierarchy.l1_misses;
  Metric.add (Metric.counter "executor.llc_misses") counters.Hierarchy.llc_misses;
  Metric.add (Metric.counter "executor.l1_tlb_misses") counters.Hierarchy.l1_tlb_misses;
  Metric.add (Metric.counter "executor.l2_tlb_misses") counters.Hierarchy.l2_tlb_misses;
  Metric.add (Metric.counter "executor.prealloc_hits") p.Policy.stats.calls_avoided;
  Metric.add (Metric.counter "executor.recycle_evictions") p.Policy.stats.recycle_evictions;
  Metric.set_max (Metric.gauge "executor.heap_peak_bytes")
    (float_of_int (Allocator.peak_bytes heap));
  let secs = Int64.to_float elapsed_ns /. 1e9 in
  let rate = if secs > 0. then float_of_int events /. secs else 0. in
  Metric.set (Metric.gauge "executor.events_per_sec") rate;
  Log.info (fun m ->
      m "%s: %d events in %.1f ms (%.0f events/s), %d prealloc hits, %d evictions"
        p.Policy.name events (secs *. 1e3) rate
        p.Policy.stats.calls_avoided p.Policy.stats.recycle_evictions)

(* Shared epilogue: recovery logging/metrics + the outcome record. *)
let finish_run ~config ~(p : Policy.t) ~lenient ~obs_on ~start_ns ~heap ~mem ~events
    ~instructions_base ~mem_refs ~heatmap ~attribution ~recovery =
  if lenient && recovery_total recovery > 0 then
    Log.warn (fun m ->
        m "%s: lenient replay recovered from %d anomalies (%a)" p.Policy.name
          (recovery_total recovery) pp_recovery recovery);
  let peak = Allocator.peak_bytes heap in
  let extent = Allocator.heap_extent heap in
  p.Policy.finish ();
  let counters = mem_counters mem in
  if obs_on then begin
    record_metrics ~p heap ~events counters ~mem_refs
      ~elapsed_ns:(Int64.sub (Prefix_obs.Clock.now_ns ()) start_ns);
    Metric.add (Metric.counter "executor.recovered.double_alloc") recovery.double_allocs;
    Metric.add (Metric.counter "executor.recovered.unknown_access") recovery.unknown_accesses;
    Metric.add (Metric.counter "executor.recovered.unknown_free") recovery.unknown_frees;
    Metric.add (Metric.counter "executor.recovered.unknown_realloc") recovery.unknown_reallocs;
    Metric.add (Metric.counter "executor.recovered.invalid_size") recovery.invalid_sizes;
    Metric.add (Metric.counter "executor.recovered.policy_failure") recovery.policy_failures
  end;
  let instructions = instructions_base + p.Policy.stats.mgmt_instrs in
  let threads = max 1 (Array.length mem.l1s) in
  let est = Cycles.estimate ~params:config.cycle_params ~instructions counters in
  (* Perfectly-parallel wall-clock model across threads. *)
  let est =
    if threads = 1 then est
    else
      { est with
        total_cycles = est.total_cycles /. float_of_int threads;
        compute_cycles = est.compute_cycles /. float_of_int threads;
        memory_stall_cycles = est.memory_stall_cycles /. float_of_int threads }
  in
  let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  let metrics =
    { Metrics.policy_name = p.Policy.name;
      instructions;
      mem_refs;
      cycles = est;
      counters;
      l1_miss_rate = rate counters.l1_misses counters.refs;
      llc_miss_rate = rate counters.llc_misses counters.refs;
      l1_tlb_miss_rate = rate counters.l1_tlb_misses counters.refs;
      l2_tlb_miss_rate = rate counters.l2_tlb_misses counters.refs;
      backend_stall_pct = est.backend_stall_pct;
      peak_bytes = peak;
      heap_extent = extent;
      malloc_calls = Allocator.malloc_calls heap;
      free_calls = Allocator.free_calls heap;
      realloc_calls = Allocator.realloc_calls heap;
      calls_avoided = p.Policy.stats.calls_avoided;
      mgmt_instrs = p.Policy.stats.mgmt_instrs;
      region_objects = p.Policy.stats.region_objects;
      region_hot_objects = p.Policy.stats.region_hot_objects;
      region_hds_objects = p.Policy.stats.region_hds_objects;
      threads }
  in
  { metrics; heatmap; attribution; recovery }

(* ---- dense object table ----------------------------------------------

   The replay's per-object state (address, size, and — under
   attribution — allocation site) lives in flat arrays indexed by
   object id: workload object ids are dense small integers, so lookup
   is one bounds check and one load instead of a Hashtbl probe per
   event.  [not_live] marks dead/unseen slots.  Negative ids (possible
   only in hand-built traces; generators and the sanitizer never emit
   them) fall back to a Hashtbl so semantics match the boxed path
   exactly. *)

let not_live = min_int

type otbl = {
  mutable addrs : int array; (* not_live when the id is not live *)
  mutable sizes : int array;
  mutable sites : int array; (* written only under attribution *)
  neg : (int, int * int * int) Hashtbl.t; (* obj < 0: addr, size, site *)
}

let ot_create () =
  { addrs = Array.make 1024 not_live;
    sizes = Array.make 1024 0;
    sites = Array.make 1024 0;
    neg = Hashtbl.create 8 }

let ot_grow t obj =
  let cap = Array.length t.addrs in
  let ncap = ref cap in
  while obj >= !ncap do
    ncap := !ncap * 2
  done;
  let grow a fill =
    let b = Array.make !ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.addrs <- grow t.addrs not_live;
  t.sizes <- grow t.sizes 0;
  t.sites <- grow t.sites 0

(* Address of a live object, or [not_live]. *)
let[@inline] ot_addr t obj =
  if obj >= 0 then
    if obj < Array.length t.addrs then Array.unsafe_get t.addrs obj else not_live
  else match Hashtbl.find_opt t.neg obj with Some (a, _, _) -> a | None -> not_live

let[@inline] ot_size t obj =
  if obj >= 0 then Array.unsafe_get t.sizes obj
  else match Hashtbl.find_opt t.neg obj with Some (_, s, _) -> s | None -> 0

let[@inline] ot_site t obj =
  if obj >= 0 then
    if obj < Array.length t.sites then Array.unsafe_get t.sites obj else 0
  else match Hashtbl.find_opt t.neg obj with Some (_, _, s) -> s | None -> 0

let ot_set t obj ~addr ~size =
  if obj >= 0 then begin
    if obj >= Array.length t.addrs then ot_grow t obj;
    Array.unsafe_set t.addrs obj addr;
    Array.unsafe_set t.sizes obj size
  end
  else
    let site = match Hashtbl.find_opt t.neg obj with Some (_, _, s) -> s | None -> 0 in
    Hashtbl.replace t.neg obj (addr, size, site)

let ot_set_site t obj site =
  if obj >= 0 then begin
    if obj >= Array.length t.sites then ot_grow t obj;
    Array.unsafe_set t.sites obj site
  end
  else
    let addr, size =
      match Hashtbl.find_opt t.neg obj with
      | Some (a, s, _) -> (a, s)
      | None -> (not_live, 0)
    in
    Hashtbl.replace t.neg obj (addr, size, site)

let ot_remove t obj =
  if obj >= 0 then begin
    if obj < Array.length t.addrs then Array.unsafe_set t.addrs obj not_live
  end
  else
    let site = ot_site t obj in
    Hashtbl.replace t.neg obj (not_live, 0, site)

(* ---- packed fast path ------------------------------------------------

   The replay loop is written against a [session]: all state that must
   survive a segment boundary (heap, policy, caches, object table,
   thread memo, counters) lives in the session, and [replay_segment]
   advances it by one packed segment whose first event has global index
   [base].  [run_packed] is then a session over a single segment and
   [run_stream_many] the same sessions folded over
   {!Stream.iter_segments} — by construction the two observe identical
   event sequences and global indices, which is what makes streamed
   outcomes exactly equal to materialized ones. *)

type session = {
  ss_config : config;
  ss_p : Policy.t;
  ss_heap : Allocator.t;
  ss_lenient : bool;
  ss_obs_on : bool;
  ss_start_ns : int64;
  ss_observe_alloc : int -> unit;
  ss_mem : mem_system;
  ss_heatmap : Heatmap.t option;
  ss_heatmap_pred : (int -> bool) option;
  ss_attribute : bool;
  ss_attribution : Attribution.t option;
  ss_ot : otbl;
  mutable ss_mem_refs : int;
  mutable ss_events : int;
  mutable ss_instrs : int;
  (* Lenient-mode recovery tallies.  In strict mode these stay zero —
     the first anomaly raises instead. *)
  mutable ss_double : int;
  mutable ss_access : int;
  mutable ss_free : int;
  mutable ss_realloc : int;
  mutable ss_size : int;
  mutable ss_policy_fail : int;
  (* Most traces run long single-thread streaks, so the dense cache
     slot of the previous event's thread is memoized and the
     [thread_slot] Hashtbl probe only runs when the thread changes. *)
  mutable ss_last_thread : int;
  mutable ss_last_slot : int;
  (* Flight-recorder cadence.  [ss_next_tick] is the next *global*
     event index at which to record a telemetry sample; [max_int] when
     the recorder is off, so the hot loop pays one integer compare per
     event either way.  Gating on the global index means streamed and
     materialized replays (whatever the segment size) tick at identical
     event boundaries and record identical event-derived values. *)
  ss_tick_every : int;
  mutable ss_next_tick : int;
  mutable ss_live : int; (* live object count, for the live_objects gauge *)
}

(* Top-level (not locally closed-over) so a serialized session can swap
   it in for the histogram-capturing observer below: Marshal refuses
   the histogram's internal mutex. *)
let ignore_alloc_size (_ : int) = ()

let mk_observe_alloc obs_on =
  if obs_on then begin
    let h = Metric.histogram ~lo:0. ~hi:4096. ~buckets:32 "executor.alloc_bytes" in
    fun size -> Metric.observe h (float_of_int size)
  end
  else ignore_alloc_size

let session_create ~config ~mode ~heatmap_objs ~attribute ~heap ~p =
  let obs_on = Obs.is_on () in
  let rec_on = Recorder.enabled () in
  let observe_alloc = mk_observe_alloc obs_on in
  { ss_config = config;
    ss_p = p;
    ss_heap = heap;
    ss_lenient = mode = Policy.Lenient;
    ss_obs_on = obs_on;
    ss_start_ns = (if obs_on || rec_on then Prefix_obs.Clock.now_ns () else 0L);
    ss_observe_alloc = observe_alloc;
    ss_mem = mem_create config.hierarchy;
    ss_heatmap =
      Option.map
        (fun _ -> Heatmap.create ~time_buckets:72 ~addr_buckets:24 ())
        heatmap_objs;
    ss_heatmap_pred = heatmap_objs;
    ss_attribute = attribute;
    ss_attribution = (if attribute then Some (Attribution.create ()) else None);
    ss_ot = ot_create ();
    ss_mem_refs = 0;
    ss_events = 0;
    ss_instrs = 0;
    ss_double = 0;
    ss_access = 0;
    ss_free = 0;
    ss_realloc = 0;
    ss_size = 0;
    ss_policy_fail = 0;
    ss_last_thread = min_int;
    ss_last_slot = 0;
    ss_tick_every = (if rec_on then Recorder.interval_events () else max_int);
    ss_next_tick = (if rec_on then 0 else max_int);
    ss_live = 0 }

(* One telemetry sample: publish the replay-derived gauges, then let
   the {!Recorder} snapshot the whole registry into its timeline.  The
   recorder is the only sampling mechanism (bounded memory, exportable
   as OpenMetrics / CSV / JSON / Chrome counter tracks). *)
let session_tick st ~gindex =
  let c = mem_counters st.ss_mem in
  let hit_rate =
    if c.Hierarchy.refs = 0 then 1.
    else 1. -. (float_of_int c.l1_misses /. float_of_int c.refs)
  in
  let recoveries =
    st.ss_double + st.ss_access + st.ss_free + st.ss_realloc + st.ss_size
    + st.ss_policy_fail
  in
  Metric.set (Metric.gauge "executor.live_objects") (float_of_int st.ss_live);
  Metric.set (Metric.gauge "executor.heap_live_bytes")
    (float_of_int (Allocator.live_bytes st.ss_heap));
  Metric.set (Metric.gauge "executor.cache_hit_rate") hit_rate;
  Metric.set (Metric.gauge "executor.region_peak_bytes")
    (float_of_int st.ss_p.Policy.stats.region_peak_bytes);
  Metric.set (Metric.gauge "executor.recoveries") (float_of_int recoveries);
  Recorder.tick ~label:("replay:" ^ st.ss_p.Policy.name) ~events:gindex ();
  st.ss_next_tick <- gindex + st.ss_tick_every

let replay_segment st ~base packed =
  let seg_events = Packed.length packed in
  let seg_start_ns = if Recorder.enabled () then Prefix_obs.Clock.now_ns () else 0L in
  let p = st.ss_p in
  let heap = st.ss_heap in
  let mem = st.ss_mem in
  let ot = st.ss_ot in
  let lenient = st.ss_lenient in
  let attribution = st.ss_attribution in
  (* A policy whose internal state was corrupted by a malformed event
     stream may itself raise; in lenient mode that becomes a counted
     failure and the event degrades to the fallback action. *)
  let guarded ~fallback f =
    if not lenient then f ()
    else
      try f ()
      with Invalid_argument _ | Failure _ | Not_found ->
        st.ss_policy_fail <- st.ss_policy_fail + 1;
        fallback ()
  in
  let[@inline] slot_of thread =
    if thread = st.ss_last_thread then st.ss_last_slot
    else begin
      let s = thread_slot mem thread in
      st.ss_last_thread <- thread;
      st.ss_last_slot <- s;
      s
    end
  in
  let tags = packed.Packed.tag in
  let objs = packed.Packed.obj in
  let fas = packed.Packed.fa in
  let fbs = packed.Packed.fb in
  let fcs = packed.Packed.fc in
  let threads = packed.Packed.thread in
  (* Tag-specialized dispatch: the segment is walked as maximal
     same-tag runs (real traces are extremely run-heavy — allocation
     bursts, long access streaks, compute stretches), so the per-event
     branch on the tag disappears from the hot path and each run body
     is a tight, branch-predictable loop over the relevant columns.
     Events are still processed strictly in order with the same
     per-event telemetry gating on the *global* index, so outcomes are
     bit-identical to the former event-at-a-time loop (and to
     [run_boxed]) — only the dispatch cost changes. *)
  let run_alloc run_start run_stop =
    for index = run_start to run_stop - 1 do
      let gindex = base + index in
      if gindex >= st.ss_next_tick then session_tick st ~gindex;
      let obj = Array.unsafe_get objs index in
      let site = Array.unsafe_get fas index in
      let size = Array.unsafe_get fbs index in
      let ctx = Array.unsafe_get fcs index in
      let size =
        if size <= 0 && lenient then begin
          (* Mutated/corrupted size: clamp to one granule. *)
          st.ss_size <- st.ss_size + 1;
          16
        end
        else size
      in
      let oaddr = ot_addr ot obj in
      if oaddr <> not_live then begin
        if not lenient then
          invalid_arg (Printf.sprintf "Executor: object %d allocated twice" obj);
        (* Colliding id: treat the old object as implicitly freed so
           policy and allocator state stay consistent. *)
        st.ss_double <- st.ss_double + 1;
        let osize = ot_size ot obj in
        guarded
          ~fallback:(fun () ->
            if Allocator.is_allocated heap oaddr then Allocator.free heap oaddr)
          (fun () -> p.Policy.dealloc ~obj ~addr:oaddr ~size:osize);
        ot_remove ot obj;
        st.ss_live <- st.ss_live - 1
      end;
      let addr =
        if lenient then
          guarded
            ~fallback:(fun () -> Allocator.malloc heap size)
            (fun () -> p.Policy.alloc ~obj ~site ~ctx ~size)
        else p.Policy.alloc ~obj ~site ~ctx ~size
      in
      st.ss_observe_alloc size;
      if st.ss_attribute then ot_set_site ot obj site;
      ot_set ot obj ~addr ~size;
      st.ss_live <- st.ss_live + 1
    done
  in
  (* One loop serves every access run; attribution and the heatmap are
     an option match each, and the probe order is the boxed path's. *)
  let run_access run_start run_stop =
    for index = run_start to run_stop - 1 do
      let gindex = base + index in
      if gindex >= st.ss_next_tick then session_tick st ~gindex;
      let obj = Array.unsafe_get objs index in
      let addr = ot_addr ot obj in
      if addr = not_live then begin
        if lenient then st.ss_access <- st.ss_access + 1
        else invalid_arg (Printf.sprintf "Executor: access to unknown object %d" obj)
      end
      else begin
        st.ss_mem_refs <- st.ss_mem_refs + 1;
        let offset = Array.unsafe_get fas index in
        let write = Array.unsafe_get fbs index <> 0 in
        let thread = Array.unsafe_get threads index in
        let a = addr + offset in
        (* Inlined mem_access over the memoized thread slot. *)
        let i = slot_of thread in
        let l1_hit = Cache.probe (Array.unsafe_get mem.l1s i) ~write a in
        let llc_miss = if l1_hit then false else not (Cache.probe mem.llc ~write a) in
        let tlb1_hit = Cache.probe (Array.unsafe_get mem.l1_tlbs i) ~write:false a in
        if not tlb1_hit then
          ignore (Cache.probe (Array.unsafe_get mem.l2_tlbs i) ~write:false a);
        (match attribution with
        | Some attr ->
          Attribution.record attr ~site:(ot_site ot obj) ~l1_miss:(not l1_hit) ~llc_miss
            ~tlb_miss:(not tlb1_hit)
        | None -> ());
        match (st.ss_heatmap, st.ss_heatmap_pred) with
        | Some hm, Some pred -> if pred obj then Heatmap.record hm ~time:gindex ~addr:a
        | _ -> ()
      end
    done
  in
  let run_free run_start run_stop =
    for index = run_start to run_stop - 1 do
      let gindex = base + index in
      if gindex >= st.ss_next_tick then session_tick st ~gindex;
      let obj = Array.unsafe_get objs index in
      let addr = ot_addr ot obj in
      if addr = not_live then begin
        if lenient then st.ss_free <- st.ss_free + 1
        else invalid_arg (Printf.sprintf "Executor: free of unknown object %d" obj)
      end
      else begin
        let size = ot_size ot obj in
        if lenient then
          guarded
            ~fallback:(fun () ->
              if Allocator.is_allocated heap addr then Allocator.free heap addr)
            (fun () -> p.Policy.dealloc ~obj ~addr ~size)
        else p.Policy.dealloc ~obj ~addr ~size;
        ot_remove ot obj;
        st.ss_live <- st.ss_live - 1
      end
    done
  in
  let run_realloc run_start run_stop =
    for index = run_start to run_stop - 1 do
      let gindex = base + index in
      if gindex >= st.ss_next_tick then session_tick st ~gindex;
      let obj = Array.unsafe_get objs index in
      let addr = ot_addr ot obj in
      if addr = not_live then begin
        if lenient then st.ss_realloc <- st.ss_realloc + 1
        else invalid_arg (Printf.sprintf "Executor: realloc of unknown object %d" obj)
      end
      else begin
        let new_size = Array.unsafe_get fas index in
        if new_size <= 0 && lenient then
          (* Corrupted size: keep the object as it is. *)
          st.ss_size <- st.ss_size + 1
        else begin
          let old_size = ot_size ot obj in
          let fresh =
            if lenient then
              guarded
                ~fallback:(fun () -> addr)
                (fun () -> p.Policy.realloc ~obj ~addr ~old_size ~new_size)
            else p.Policy.realloc ~obj ~addr ~old_size ~new_size
          in
          ot_set ot obj ~addr:fresh ~size:new_size
        end
      end
    done
  in
  (* Compute events touch no replay state, so a whole run collapses to
     the telemetry-cadence check: only when the next tick falls inside
     the run does the per-event gating loop execute (ticks must fire at
     the exact same global indices as before). *)
  let run_compute run_start run_stop =
    if base + run_stop - 1 >= st.ss_next_tick then
      for index = run_start to run_stop - 1 do
        let gindex = base + index in
        if gindex >= st.ss_next_tick then session_tick st ~gindex
      done
  in
  let i = ref 0 in
  while !i < seg_events do
    let run_start = !i in
    let tag = Array.unsafe_get tags run_start in
    let j = ref (run_start + 1) in
    while !j < seg_events && Array.unsafe_get tags !j = tag do incr j done;
    let run_stop = !j in
    (match tag with
    | 1 (* Access *) -> run_access run_start run_stop
    | 4 (* Compute *) -> run_compute run_start run_stop
    | 0 (* Alloc *) -> run_alloc run_start run_stop
    | 2 (* Free *) -> run_free run_start run_stop
    | _ (* Realloc *) -> run_realloc run_start run_stop);
    i := run_stop
  done;
  st.ss_events <- st.ss_events + seg_events;
  st.ss_instrs <- st.ss_instrs + Packed.total_instructions packed;
  (* Segment boundary: publish the segment's throughput and give the
     recorder its wall-clock fallback chance (rows recorded here carry
     wall-dependent values, so they ride on [poll], never [tick] — the
     event-cadence samples above stay path-independent). *)
  if Recorder.enabled () then begin
    let secs =
      Int64.to_float (Int64.sub (Prefix_obs.Clock.now_ns ()) seg_start_ns) /. 1e9
    in
    if secs > 0. then
      Metric.set
        (Metric.gauge "executor.segment_events_per_sec")
        (float_of_int seg_events /. secs);
    Recorder.poll ~label:("replay:" ^ p.Policy.name) ~events:(base + seg_events) ()
  end

let session_finish st =
  (* Closing sample at the final event index, so the timeline always
     ends with the run's end state even when the event count is not a
     multiple of the cadence. *)
  if st.ss_next_tick <> max_int then session_tick st ~gindex:st.ss_events;
  let recovery =
    { double_allocs = st.ss_double;
      unknown_accesses = st.ss_access;
      unknown_frees = st.ss_free;
      unknown_reallocs = st.ss_realloc;
      invalid_sizes = st.ss_size;
      policy_failures = st.ss_policy_fail }
  in
  finish_run ~config:st.ss_config ~p:st.ss_p ~lenient:st.ss_lenient ~obs_on:st.ss_obs_on
    ~start_ns:st.ss_start_ns ~heap:st.ss_heap ~mem:st.ss_mem ~events:st.ss_events
    ~instructions_base:st.ss_instrs ~mem_refs:st.ss_mem_refs ~heatmap:st.ss_heatmap
    ~attribution:st.ss_attribution ~recovery

let session_events st = st.ss_events

(* ---- session serialization -------------------------------------------

   The whole cross-segment state — heap, policy closures (and through
   them regions, arenas, plan tables and recycle slots), cache arrays,
   dense object table, recovery counters, heatmap/attribution — is one
   strongly-connected heap structure rooted at the session record, so a
   single [Marshal] call with [Closures] snapshots it with all internal
   sharing preserved.  Two deliberate consequences:

   - [Closures] embeds MD5 digests of the closures' code, so a snapshot
     written by a different binary fails to deserialize cleanly instead
     of resuming with mismatched code — exactly the staleness backstop
     a checkpoint header cannot provide on its own.
   - [ss_observe_alloc] may capture a {!Metric.histogram} whose mutex
     Marshal rejects; it is swapped for a top-level no-op before
     serializing and rebuilt from [ss_obs_on] on restore. *)

let session_serialize st =
  Marshal.to_string { st with ss_observe_alloc = ignore_alloc_size } [ Marshal.Closures ]

let session_deserialize s =
  match (Marshal.from_string s 0 : session) with
  | st -> Ok { st with ss_observe_alloc = mk_observe_alloc st.ss_obs_on }
  | exception (Failure msg | Invalid_argument msg) ->
    Error ("session snapshot does not match this binary: " ^ msg)

let run_packed ?(config = default_config) ?(mode = Policy.Strict) ?heatmap_objs
    ?(attribute = false) ~policy packed =
  let events = Packed.length packed in
  let heap = Allocator.create () in
  let p = policy heap in
  Span.with_ ~cat:"executor"
    ~args:[ ("policy", p.Policy.name); ("events", string_of_int events) ]
    ("replay:" ^ p.Policy.name)
  @@ fun () ->
  let st = session_create ~config ~mode ~heatmap_objs ~attribute ~heap ~p in
  replay_segment st ~base:0 packed;
  session_finish st

let sessions_create ?(config = default_config) ?(mode = Policy.Strict) ?heatmap_objs
    ?(attribute = false) policies =
  List.map
    (fun policy ->
      let heap = Allocator.create () in
      let p = policy heap in
      session_create ~config ~mode ~heatmap_objs ~attribute ~heap ~p)
    policies

(* Decode-once fan-out, the one streamed entry point: one pass over the
   stream feeds every policy's session in turn before the next segment
   is decoded, so N replays cost one decode instead of N.  Sessions are
   fully independent (own heap, policy, caches, object table, counters,
   heatmap, attribution) and each one sees exactly the segment sequence
   and global indices of the stream, so every outcome is identical to
   its policy's replay alone — a one-policy streamed replay is simply a
   fan-out of one. *)
let run_stream_many ?config ?mode ?heatmap_objs ?attribute ~policies stream =
  let states = sessions_create ?config ?mode ?heatmap_objs ?attribute policies in
  let names = String.concat "," (List.map (fun st -> st.ss_p.Policy.name) states) in
  Span.with_ ~cat:"executor"
    ~args:[ ("policies", names); ("events", "streamed") ]
    "replay:fanout"
  @@ fun () ->
  Stream.iter_segments stream (fun ~base seg ->
      List.iter (fun st -> replay_segment st ~base seg) states);
  List.map session_finish states

(* ---- boxed reference path --------------------------------------------

   The seed implementation, kept verbatim as the differential oracle:
   the tests and the benchmark's report check replay traces through
   both paths and require identical metrics and recovery counters.
   Functional changes belong in [run_packed]; this loop only changes
   when the replay semantics themselves do. *)

let run_boxed ?(config = default_config) ?(mode = Policy.Strict) ?heatmap_objs
    ?(attribute = false) ~policy trace =
  let heap = Allocator.create () in
  let p = policy heap in
  Span.with_ ~cat:"executor"
    ~args:[ ("policy", p.Policy.name); ("events", string_of_int (Trace.length trace)) ]
    ("replay:" ^ p.Policy.name)
  @@ fun () ->
  let lenient = mode = Policy.Lenient in
  let obs_on = Obs.is_on () in
  let start_ns = if obs_on then Prefix_obs.Clock.now_ns () else 0L in
  let alloc_hist =
    if obs_on then
      Some (Metric.histogram ~lo:0. ~hi:4096. ~buckets:32 "executor.alloc_bytes")
    else None
  in
  let mem = mem_create config.hierarchy in
  let heatmap =
    Option.map (fun _ -> Heatmap.create ~time_buckets:72 ~addr_buckets:24 ()) heatmap_objs
  in
  let attribution = if attribute then Some (Attribution.create ()) else None in
  let site_of : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let live : (int, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let mem_refs = ref 0 in
  let r_double = ref 0 and r_access = ref 0 and r_free = ref 0 in
  let r_realloc = ref 0 and r_size = ref 0 and r_policy = ref 0 in
  let guarded ~fallback f =
    if not lenient then f ()
    else try f () with Invalid_argument _ | Failure _ | Not_found -> incr r_policy; fallback ()
  in
  (* No flight-recorder wiring here: the boxed loop is a frozen
     differential oracle, and telemetry must not perturb the replay it
     is compared against. *)
  Trace.iteri
    (fun index e ->
      match (e : Event.t) with
      | Compute _ -> ()
      | Alloc { obj; site; ctx; size; _ } ->
        let size =
          if size <= 0 && lenient then begin
            (* Mutated/corrupted size: clamp to one granule. *)
            incr r_size;
            16
          end
          else size
        in
        if Hashtbl.mem live obj then begin
          if not lenient then
            invalid_arg (Printf.sprintf "Executor: object %d allocated twice" obj);
          (* Colliding id: treat the old object as implicitly freed so
             policy and allocator state stay consistent. *)
          incr r_double;
          (match Hashtbl.find_opt live obj with
          | Some (oaddr, osize) ->
            guarded
              ~fallback:(fun () ->
                if Allocator.is_allocated heap oaddr then Allocator.free heap oaddr)
              (fun () -> p.Policy.dealloc ~obj ~addr:oaddr ~size:osize)
          | None -> ());
          Hashtbl.remove live obj
        end;
        let addr =
          guarded
            ~fallback:(fun () -> Allocator.malloc heap size)
            (fun () -> p.Policy.alloc ~obj ~site ~ctx ~size)
        in
        (match alloc_hist with
        | Some h -> Metric.observe h (float_of_int size)
        | None -> ());
        if attribute then Hashtbl.replace site_of obj site;
        Hashtbl.replace live obj (addr, size)
      | Access { obj; offset; thread; write } -> (
        match Hashtbl.find_opt live obj with
        | None ->
          if lenient then incr r_access
          else invalid_arg (Printf.sprintf "Executor: access to unknown object %d" obj)
        | Some (addr, _) ->
          incr mem_refs;
          let a = addr + offset in
          let l1_miss, llc_miss, tlb_miss = mem_access mem thread ~write a in
          (match attribution with
          | Some attr ->
            let site = Option.value ~default:0 (Hashtbl.find_opt site_of obj) in
            Attribution.record attr ~site ~l1_miss ~llc_miss ~tlb_miss
          | None -> ());
          (match (heatmap, heatmap_objs) with
          | Some hm, Some pred -> if pred obj then Heatmap.record hm ~time:index ~addr:a
          | _ -> ()))
      | Free { obj; _ } -> (
        match Hashtbl.find_opt live obj with
        | None ->
          if lenient then incr r_free
          else invalid_arg (Printf.sprintf "Executor: free of unknown object %d" obj)
        | Some (addr, size) ->
          guarded
            ~fallback:(fun () ->
              if Allocator.is_allocated heap addr then Allocator.free heap addr)
            (fun () -> p.Policy.dealloc ~obj ~addr ~size);
          Hashtbl.remove live obj)
      | Realloc { obj; new_size; _ } -> (
        match Hashtbl.find_opt live obj with
        | None ->
          if lenient then incr r_realloc
          else invalid_arg (Printf.sprintf "Executor: realloc of unknown object %d" obj)
        | Some (addr, old_size) ->
          if new_size <= 0 && lenient then
            (* Corrupted size: keep the object as it is. *)
            incr r_size
          else begin
            let fresh =
              guarded
                ~fallback:(fun () -> addr)
                (fun () -> p.Policy.realloc ~obj ~addr ~old_size ~new_size)
            in
            Hashtbl.replace live obj (fresh, new_size)
          end))
    trace;
  let recovery =
    { double_allocs = !r_double;
      unknown_accesses = !r_access;
      unknown_frees = !r_free;
      unknown_reallocs = !r_realloc;
      invalid_sizes = !r_size;
      policy_failures = !r_policy }
  in
  finish_run ~config ~p ~lenient ~obs_on ~start_ns ~heap ~mem
    ~events:(Trace.length trace)
    ~instructions_base:(Trace.total_instructions trace)
    ~mem_refs:!mem_refs ~heatmap ~attribution ~recovery

let run ?config ?mode ?heatmap_objs ?attribute ~policy trace =
  run_packed ?config ?mode ?heatmap_objs ?attribute ~policy (Packed.of_trace trace)

let run_baseline ?config ?mode trace =
  let costs =
    match config with Some c -> c.costs | None -> default_config.costs
  in
  run ?config ?mode ~policy:(fun heap -> Policy.baseline costs heap) trace
