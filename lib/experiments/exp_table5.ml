(* Table 5: PreFix object capture, profiling vs long run — the fraction
   of heap accesses covered by preallocated objects (HA), the number of
   hot objects captured, and how many belong to streams.  The profiling
   side comes from the plan; the long-run side from the best PreFix
   policy's region accounting. *)

module T = Prefix_util.Tablefmt
module M = Prefix_runtime.Metrics

let title = "Table 5: PreFix capture, profiling vs long run (measured | paper)"

let report () =
  let t =
    T.create
      ~headers:
        [ "benchmark"; "prof HA%"; "prof Hot"; "prof HDS"; "long HA%"; "long Hot"; "long HDS";
          "paper prof (HA/Hot/HDS)"; "paper long (HA/Hot/HDS)" ]
  in
  List.iter
    (fun (r : Harness.result) ->
      let best, _ = Harness.best_prefix r in
      let plan = Option.get best.plan in
      let p = Paper_data.find_table5 r.wl.name in
      (* Long-run HA: the hot set's share of long-run heap accesses,
         scaled by the fraction of hot objects the policy captured. *)
      let m = best.metrics in
      let long_hot_total = Hashtbl.length r.long_hot_set in
      let capture_ratio =
        if long_hot_total = 0 then 0.
        else float_of_int m.M.region_hot_objects /. float_of_int long_hot_total
      in
      let long_ha = 100. *. r.long_hot_share *. min 1.0 capture_ratio in
      T.add_row t
        [ r.wl.name;
          T.fmt_f (100. *. plan.profile.heap_access_share);
          T.fmt_int plan.profile.hot_count;
          T.fmt_int plan.profile.hds_count;
          T.fmt_f long_ha;
          T.fmt_int m.M.region_hot_objects;
          T.fmt_int m.M.region_hds_objects;
          Printf.sprintf "%.1f / %s / %s" p.prof_ha (T.fmt_int p.prof_hot) (T.fmt_int p.prof_hds);
          Printf.sprintf "%.1f / %s / %s" p.long_ha (T.fmt_int p.long_hot) (T.fmt_int p.long_hds) ])
    (Harness.run_all ());
  title ^ "\n" ^ T.render t
