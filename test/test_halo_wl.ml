(* Tests for the HALO baseline analysis and the 13 workload models. *)

module Halo = Prefix_halo.Halo
module Trace_stats = Prefix_trace.Trace_stats
module Trace = Prefix_trace.Trace
module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry
module B = Prefix_workloads.Builder

(* ---- HALO analysis ---- *)

(* Two hot contexts whose objects are accessed together, one hot context
   accessed far away, one cold context. *)
let halo_trace () =
  let b = B.create ~seed:4 () in
  let a1 = B.alloc b ~site:1 ~ctx:100 32 in
  let a2 = B.alloc b ~site:2 ~ctx:200 32 in
  let far = B.alloc b ~site:3 ~ctx:300 32 in
  let cold = B.alloc b ~site:4 ~ctx:400 32 in
  B.access b cold 0;
  for _ = 1 to 100 do
    (* a1 and a2 co-accessed; far accessed in its own phase *)
    B.access b a1 0;
    B.access b a2 0
  done;
  for _ = 1 to 100 do
    B.access b far 0
  done;
  B.trace b

let test_halo_grouping () =
  let trace = halo_trace () in
  let stats = Trace_stats.analyze trace in
  let plan = Halo.plan_of_trace stats trace in
  Alcotest.(check bool) "cold ctx not in plan" true
    (not (List.mem 400 plan.hot_ctxs));
  let g1 = Halo.ctx_in_plan plan 100 and g2 = Halo.ctx_in_plan plan 200 in
  Alcotest.(check bool) "co-accessed ctxs share a group" true (g1 = g2 && g1 <> None);
  Alcotest.(check bool) "hot ctx 300 captured" true (Halo.ctx_in_plan plan 300 <> None)

let test_halo_unknown_ctx () =
  let trace = halo_trace () in
  let stats = Trace_stats.analyze trace in
  let plan = Halo.plan_of_trace stats trace in
  Alcotest.(check (option int)) "unknown" None (Halo.ctx_in_plan plan 99999)

(* ---- Workload models ---- *)

let test_all_traces_valid () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun scale ->
          let t = w.generate ~scale ~seed:7 () in
          match Trace.validate t with
          | [] -> ()
          | v :: _ ->
            Alcotest.failf "%s (%s): %s" w.name (Workload.scale_name scale)
              (Format.asprintf "%a" Trace.pp_violation v))
        [ Workload.Profiling; Workload.Long ])
    Registry.all

let test_deterministic () =
  List.iter
    (fun (w : Workload.t) ->
      let t1 = w.generate ~scale:Workload.Profiling ~seed:7 () in
      let t2 = w.generate ~scale:Workload.Profiling ~seed:7 () in
      Alcotest.(check int) (w.name ^ " same length") (Trace.length t1) (Trace.length t2);
      Alcotest.(check string) (w.name ^ " same content")
        (Prefix_trace.Event.to_line (Trace.get t1 (Trace.length t1 / 2)))
        (Prefix_trace.Event.to_line (Trace.get t2 (Trace.length t2 / 2))))
    Registry.all

let test_scales_differ () =
  List.iter
    (fun (w : Workload.t) ->
      let p = w.generate ~scale:Workload.Profiling ~seed:7 () in
      let l = w.generate ~scale:Workload.Long ~seed:7 () in
      Alcotest.(check bool) (w.name ^ " long is longer") true
        (Trace.length l > Trace.length p))
    Registry.all

let test_allocation_prefix_stable_across_scales () =
  (* Fixed instance ids only work if the allocation *order* of the setup
     phase is identical in profiling and long runs. *)
  List.iter
    (fun name ->
      let w = Registry.find name in
      let p = w.generate ~scale:Workload.Profiling ~seed:7 () in
      let l = w.generate ~scale:Workload.Long ~seed:7 () in
      let allocs t =
        let out = ref [] in
        Trace.iter
          (fun e ->
            match (e : Prefix_trace.Event.t) with
            | Alloc { obj; site; size; _ } -> out := (obj, site, size) :: !out
            | _ -> ())
          t;
        List.rev !out
      in
      let ap = allocs p and al = allocs l in
      let rec prefix_eq n a b =
        if n = 0 then true
        else
          match (a, b) with
          | x :: a', y :: b' -> x = y && prefix_eq (n - 1) a' b'
          | _ -> false
      in
      (* The first 50 allocations (the setup phase) must agree. *)
      Alcotest.(check bool) (name ^ " setup allocations stable") true
        (prefix_eq (min 50 (List.length ap)) ap al))
    [ "mcf"; "mysql"; "xalanc"; "health"; "ft"; "analyzer"; "libc"; "omnetpp"; "perl" ]

let test_threads_honoured () =
  List.iter
    (fun (w : Workload.t) ->
      if w.bench_threads then begin
        let t = w.generate ~threads:4 ~scale:Workload.Profiling ~seed:7 () in
        let threads = Hashtbl.create 8 in
        Trace.iter (fun e -> Hashtbl.replace threads (Prefix_trace.Event.thread e) ()) t;
        Alcotest.(check bool) (w.name ^ " uses 4 threads") true (Hashtbl.length threads >= 4)
      end)
    Registry.all

let test_registry () =
  Alcotest.(check int) "13 benchmarks" 13 (List.length Registry.all);
  Alcotest.(check bool) "find works" true ((Registry.find "mcf").name = "mcf");
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.find "nope"))

let test_builder_bounds () =
  let b = B.create () in
  let o = B.alloc b ~site:1 32 in
  Alcotest.check_raises "oob access"
    (Invalid_argument "Builder.access: offset 32 outside object 1 (size 32)") (fun () ->
      B.access b o 32);
  B.free b o;
  Alcotest.check_raises "use after free"
    (Invalid_argument "Builder.access: object 1 is not live") (fun () -> B.access b o 0)

let suite =
  [ ( "halo",
      [ Alcotest.test_case "grouping" `Quick test_halo_grouping;
        Alcotest.test_case "unknown ctx" `Quick test_halo_unknown_ctx ] );
    ( "workloads",
      [ Alcotest.test_case "all traces valid" `Slow test_all_traces_valid;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "scales differ" `Quick test_scales_differ;
        Alcotest.test_case "setup allocations stable" `Quick
          test_allocation_prefix_stable_across_scales;
        Alcotest.test_case "threads honoured" `Quick test_threads_honoured;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "builder bounds" `Quick test_builder_bounds ] ) ]
