(* Tests for Prefix_cachesim: Cache, Hierarchy, Cycles, Heatmap. *)

open Prefix_cachesim

let small_cache () = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 ()

let test_geometry () =
  let c = small_cache () in
  Alcotest.(check int) "sets" 8 (Cache.sets c);
  Alcotest.(check int) "assoc" 2 (Cache.assoc c);
  Alcotest.(check int) "line" 64 (Cache.line_bytes c)

let test_geometry_invalid () =
  Alcotest.check_raises "bad line" (Invalid_argument "Cache: line size must be a power of two")
    (fun () -> ignore (Cache.create ~size_bytes:960 ~assoc:2 ~line_bytes:48 ()));
  (* Positivity is checked before the constructors divide by it. *)
  Alcotest.check_raises "zero assoc" (Invalid_argument "Cache: associativity must be positive")
    (fun () -> ignore (Cache.create ~size_bytes:1024 ~assoc:0 ~line_bytes:64 ()));
  Alcotest.check_raises "zero line" (Invalid_argument "Cache: line size must be a power of two")
    (fun () -> ignore (Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:0 ()));
  Alcotest.check_raises "zero tlb assoc"
    (Invalid_argument "Cache: associativity must be positive")
    (fun () -> ignore (Cache.create_entries ~entries:16 ~assoc:0 ~page_bytes:4096 ()))

let read c addr = Cache.probe c ~write:false addr
let write c addr = ignore (Cache.probe c ~write:true addr)

let test_cold_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "cold miss" false (read c 0);
  Alcotest.(check bool) "hit" true (read c 0);
  Alcotest.(check bool) "same line hit" true (read c 63);
  Alcotest.(check bool) "next line misses" false (read c 64);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c)

let test_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to the same set (set stride = 8 lines * 64 B). *)
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (read c a);
  ignore (read c b);
  ignore (read c a); (* a is now MRU *)
  ignore (read c d); (* evicts b (LRU) *)
  Alcotest.(check bool) "a survives" true (read c a);
  Alcotest.(check bool) "b evicted" false (read c b)

let test_capacity () =
  let c = small_cache () in
  (* Touch exactly as many lines as the cache holds: all fit. *)
  for i = 0 to 15 do
    ignore (read c (i * 64))
  done;
  let cold = Cache.misses c in
  for i = 0 to 15 do
    ignore (read c (i * 64))
  done;
  Alcotest.(check int) "fully resident" cold (Cache.misses c)

let test_writebacks () =
  let c = small_cache () in
  (* Fill one set (2 ways) with dirty lines, then force evictions. *)
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  write c a;
  write c b;
  Alcotest.(check int) "no writebacks yet" 0 (Cache.writebacks c);
  ignore (read c d);
  (* evicts dirty a *)
  Alcotest.(check int) "one writeback" 1 (Cache.writebacks c);
  (* clean eviction: d was a read-only fill *)
  ignore (read c a);
  (* evicts dirty b *)
  ignore (read c b);
  (* evicts clean d -> still 2 *)
  Alcotest.(check int) "dirty only" 2 (Cache.writebacks c)

let test_tlb_constructor () =
  let t = Cache.create_entries ~entries:16 ~assoc:4 ~page_bytes:4096 () in
  Alcotest.(check int) "sets" 4 (Cache.sets t);
  ignore (read t 0);
  Alcotest.(check bool) "same page hits" true (read t 4095);
  Alcotest.(check bool) "next page misses" false (read t 4096)

(* An L1 in front of an LLC, both sized from the scaled hierarchy, each
   reference walking L1 -> LLC as the executor's memory system does. *)
let test_hierarchy_counters () =
  let c = Hierarchy.scaled_config in
  let l1 = Cache.create ~size_bytes:c.l1_size ~assoc:c.l1_assoc ~line_bytes:c.line_bytes () in
  let llc = Cache.create ~size_bytes:c.llc_size ~assoc:c.llc_assoc ~line_bytes:c.line_bytes () in
  let access addr = if not (read l1 addr) then ignore (read llc addr) in
  for i = 0 to 999 do
    access (i * 64)
  done;
  (* Second pass: 1000 lines = 62.5 KB exceeds the 8 KB L1 but fits LLC. *)
  for i = 0 to 999 do
    access (i * 64)
  done;
  Alcotest.(check int) "refs" 2000 (Cache.accesses l1);
  Alcotest.(check bool) "L1 thrashes" true (Cache.misses l1 > 1500);
  Alcotest.(check int) "LLC holds everything" 1000 (Cache.misses llc);
  (* Every LLC reference is an L1 miss. *)
  Alcotest.(check int) "LLC sees L1 misses" (Cache.misses l1) (Cache.accesses llc)

let test_paper_config_geometry () =
  (* 32 KB 8-way 64 B lines = 64 sets; 40 MB 20-way = 32768 sets. *)
  let c = Hierarchy.paper_config in
  Alcotest.(check int) "l1" (32 * 1024) c.l1_size;
  Alcotest.(check int) "llc assoc" 20 c.llc_assoc

let test_cycles_compute_only () =
  let est =
    Cycles.estimate ~instructions:4000
      { refs = 0; l1_misses = 0; llc_misses = 0; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  Alcotest.(check (float 1e-9)) "width-4 issue" 1000. est.total_cycles;
  Alcotest.(check (float 1e-9)) "no stalls" 0. est.backend_stall_pct

let test_cycles_memory_monotone () =
  let base =
    Cycles.estimate ~instructions:1000
      { refs = 100; l1_misses = 10; llc_misses = 0; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  let worse =
    Cycles.estimate ~instructions:1000
      { refs = 100; l1_misses = 10; llc_misses = 10; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  Alcotest.(check bool) "dram misses cost more" true
    (worse.total_cycles > base.total_cycles);
  Alcotest.(check bool) "stall pct grows" true
    (worse.backend_stall_pct > base.backend_stall_pct)

let test_time_seconds () =
  let est =
    Cycles.estimate ~instructions:12_000_000_000
      { refs = 0; l1_misses = 0; llc_misses = 0; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  Alcotest.(check (float 1e-6)) "3 GHz" 1.0 (Cycles.time_seconds est)

(* The oracle: a stamp-based true-LRU model — one tag, stamp and dirty
   bit per way and a global clock; a hit restamps its way, a miss evicts
   the way with the oldest stamp (an invalid way's stamp 0 is older than
   any access).  [Executor.run_boxed] shares [Cache], so this model is
   the only independent check of the production cache. *)
module Ref_cache = struct
  type t = {
    sets : int;
    assoc : int;
    shift : int;
    tags : int array;
    stamps : int array;
    dirty : bool array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
    mutable writebacks : int;
  }

  let create ~sets ~assoc ~line_bytes =
    let rec log2 a n = if n <= 1 then a else log2 (a + 1) (n / 2) in
    { sets; assoc; shift = log2 0 line_bytes;
      tags = Array.make (sets * assoc) (-1);
      stamps = Array.make (sets * assoc) 0;
      dirty = Array.make (sets * assoc) false;
      clock = 0; accesses = 0; misses = 0; writebacks = 0 }

  let access t ~write addr =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let line = addr lsr t.shift in
    let set = line mod t.sets in
    let base = set * t.assoc in
    let hit = ref (-1) in
    let lru = ref 0 in
    for w = 0 to t.assoc - 1 do
      if t.tags.(base + w) = line then hit := w;
      if t.stamps.(base + w) < t.stamps.(base + !lru) then lru := w
    done;
    if !hit >= 0 then begin
      t.stamps.(base + !hit) <- t.clock;
      if write then t.dirty.(base + !hit) <- true;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let i = base + !lru in
      if t.tags.(i) >= 0 && t.dirty.(i) then t.writebacks <- t.writebacks + 1;
      t.tags.(i) <- line;
      t.stamps.(i) <- t.clock;
      t.dirty.(i) <- write;
      false
    end
end

(* A geometry for either constructor: [tlb] builds through
   [create_entries] with [line_bytes] as the page size. *)
type geometry = { tlb : bool; sets : int; assoc : int; line_bytes : int }

let build g =
  if g.tlb then
    Cache.create_entries ~entries:(g.sets * g.assoc) ~assoc:g.assoc ~page_bytes:g.line_bytes ()
  else
    Cache.create ~size_bytes:(g.sets * g.assoc * g.line_bytes) ~assoc:g.assoc
      ~line_bytes:g.line_bytes ()

(* Fixed cases: an 8-set 2-way data cache and a 4-set 4-way TLB. *)
let fixed_cache = { tlb = false; sets = 8; assoc = 2; line_bytes = 64 }
let fixed_tlb = { tlb = true; sets = 4; assoc = 4; line_bytes = 4096 }

let gen_geometry =
  QCheck.Gen.(
    let* tlb = bool in
    let* assoc = int_range 1 20 in
    let* sets = map (fun k -> 1 lsl k) (int_range 0 10) in
    let+ line_bytes = map (fun k -> 1 lsl k) (int_range 0 12) in
    { tlb; sets; assoc; line_bytes })

(* (addr, write) steps over two more lines per set than it has ways,
   half of them in the first four sets, so sets fill, hit at every depth
   and evict, dirty or clean. *)
let gen_steps g =
  QCheck.Gen.(
    let set = oneof [ int_range 0 (min g.sets 4 - 1); int_range 0 (g.sets - 1) ] in
    let line = map2 (fun tag set -> (tag * g.sets) + set) (int_range 0 (g.assoc + 1)) set in
    let addr = map2 (fun l off -> (l * g.line_bytes) + off) line (int_range 0 (g.line_bytes - 1)) in
    list_size (int_range 0 600) (pair addr bool))

let arb_case =
  let gen =
    QCheck.Gen.(
      let* g = frequency [ (1, return fixed_cache); (1, return fixed_tlb); (6, gen_geometry) ] in
      let+ steps = gen_steps g in
      (g, steps))
  in
  let print (g, steps) =
    Printf.sprintf "%s sets=%d assoc=%d line=%d, %d steps: %s"
      (if g.tlb then "create_entries" else "create")
      g.sets g.assoc g.line_bytes (List.length steps)
      (String.concat " "
         (List.map (fun (a, w) -> Printf.sprintf "%s%d" (if w then "w" else "r") a) steps))
  in
  QCheck.make ~print gen

let prop_mru_matches_reference =
  (* The hit verdict and all three counters must match the stamp model
     after every step, on random geometries and on the fixed cases. *)
  QCheck.Test.make ~name:"MRU-first probe ≡ plain LRU scan" ~count:500 arb_case
    (fun (g, steps) ->
      let c = build g in
      let r = Ref_cache.create ~sets:g.sets ~assoc:g.assoc ~line_bytes:g.line_bytes in
      Cache.sets c = g.sets
      && List.for_all
           (fun (addr, write) ->
             Cache.probe c ~write addr = Ref_cache.access r ~write addr
             && Cache.accesses c = r.Ref_cache.accesses
             && Cache.misses c = r.Ref_cache.misses
             && Cache.writebacks c = r.Ref_cache.writebacks)
           steps)

let test_mru_fast_path_counts () =
  (* A same-line streak hits at depth 0 and moves nothing; the counters
     must be exactly those of the stamp model (1 cold miss, rest hits),
     and a conflicting line must still evict true-LRU. *)
  let c = small_cache () in
  for _ = 1 to 100 do
    ignore (read c 0)
  done;
  Alcotest.(check int) "one cold miss" 1 (Cache.misses c);
  Alcotest.(check int) "all counted" 100 (Cache.accesses c);
  let b = 8 * 64 and d = 16 * 64 in
  ignore (read c b); (* fills the empty way of set 0 *)
  ignore (read c d); (* evicts line 0, the set's LRU *)
  Alcotest.(check bool) "LRU (line 0) evicted" false (read c 0);
  Alcotest.(check bool) "MRU survivor hits" true (read c d)

let test_heatmap () =
  let h = Heatmap.create ~time_buckets:10 ~addr_buckets:5 () in
  Alcotest.(check int) "empty footprint" 0 (Heatmap.footprint_bytes h);
  Heatmap.record h ~time:0 ~addr:1000;
  Heatmap.record h ~time:50 ~addr:9000;
  (* Inclusive span: addresses 1000..9000 cover 8001 bytes, not 8000. *)
  Alcotest.(check int) "footprint" 8001 (Heatmap.footprint_bytes h);
  Alcotest.(check int) "samples" 2 (Heatmap.samples h);
  let s = Heatmap.render h in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_heatmap_single_address () =
  (* Regression: a heatmap with samples at exactly one address used to
     report a footprint of 0 bytes (max - min). *)
  let h = Heatmap.create ~time_buckets:4 ~addr_buckets:4 () in
  Heatmap.record h ~time:0 ~addr:4096;
  Heatmap.record h ~time:9 ~addr:4096;
  Alcotest.(check int) "one byte footprint" 1 (Heatmap.footprint_bytes h)

let test_heatmap_thinning () =
  let h = Heatmap.create ~time_buckets:4 ~addr_buckets:4 () in
  for i = 0 to 500_000 do
    Heatmap.record h ~time:i ~addr:(i mod 1000);
    (* Regression: the thinning bookkeeping drifted from the real number
       of retained points, so the reservoir either over- or under-thinned. *)
    if i land 0xFFFF = 0 then
      Alcotest.(check int) "kept matches stored"
        (Heatmap.stored_points h) (Heatmap.kept_points h)
  done;
  Alcotest.(check int) "all samples counted" 500_001 (Heatmap.samples h);
  Alcotest.(check int) "kept matches stored at end"
    (Heatmap.stored_points h) (Heatmap.kept_points h);
  ignore (Heatmap.render h)

let suite =
  [ ( "cachesim",
      [ Alcotest.test_case "geometry" `Quick test_geometry;
        Alcotest.test_case "invalid geometry" `Quick test_geometry_invalid;
        Alcotest.test_case "miss then hit" `Quick test_cold_miss_then_hit;
        Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        Alcotest.test_case "capacity" `Quick test_capacity;
        Alcotest.test_case "writebacks" `Quick test_writebacks;
        Alcotest.test_case "tlb constructor" `Quick test_tlb_constructor;
        Alcotest.test_case "hierarchy counters" `Quick test_hierarchy_counters;
        Alcotest.test_case "paper config" `Quick test_paper_config_geometry;
        Alcotest.test_case "cycles compute only" `Quick test_cycles_compute_only;
        Alcotest.test_case "cycles memory monotone" `Quick test_cycles_memory_monotone;
        Alcotest.test_case "time seconds" `Quick test_time_seconds;
        Alcotest.test_case "MRU fast path counts" `Quick test_mru_fast_path_counts;
        QCheck_alcotest.to_alcotest prop_mru_matches_reference;
        Alcotest.test_case "heatmap" `Quick test_heatmap;
        Alcotest.test_case "heatmap single address" `Quick test_heatmap_single_address;
        Alcotest.test_case "heatmap thinning" `Quick test_heatmap_thinning ] ) ]
