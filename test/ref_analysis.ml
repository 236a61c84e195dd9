(* Reference implementations of the profile-analysis kernels, kept
   verbatim from their list- and tuple-based form as oracles for
   test_analysis_diff.ml: the LCS dynamic program, the LCS and n-gram
   hot-data-stream miners (with the hot-sequence pruning and candidate
   merge they share), and HALO's affinity matrix and greedy grouping.
   The library versions must produce the same OHDS — objects and refs,
   in order — and the same HALO groups.  One departure from the
   verbatim code: the hot-object selection honours [config.coverage],
   which the library now does too. *)

module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event
module Hds = Prefix_hds.Hds
module Detector = Prefix_hds.Detector

module Lcs = struct
  let table a b =
    let n = Array.length a and m = Array.length b in
    let dp = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = 1 to n do
      for j = 1 to m do
        dp.(i).(j) <-
          (if a.(i - 1) = b.(j - 1) then dp.(i - 1).(j - 1) + 1
           else max dp.(i - 1).(j) dp.(i).(j - 1))
      done
    done;
    dp

  let lcs_with_positions a b =
    let dp = table a b in
    let rec back i j acc =
      if i = 0 || j = 0 then acc
      else if a.(i - 1) = b.(j - 1) && dp.(i).(j) = dp.(i - 1).(j - 1) + 1 then
        back (i - 1) (j - 1) ((a.(i - 1), i - 1, j - 1) :: acc)
      else if dp.(i - 1).(j) >= dp.(i).(j - 1) then back (i - 1) j acc
      else back i (j - 1) acc
    in
    back (Array.length a) (Array.length b) []

  let length a b =
    let a, b = if Array.length a < Array.length b then (b, a) else (a, b) in
    let m = Array.length b in
    let prev = Array.make (m + 1) 0 and cur = Array.make (m + 1) 0 in
    Array.iter
      (fun ai ->
        for j = 1 to m do
          cur.(j) <- (if ai = b.(j - 1) then prev.(j - 1) + 1 else max prev.(j) cur.(j - 1))
        done;
        Array.blit cur 0 prev 0 (m + 1);
        Array.fill cur 0 (m + 1) 0)
      a;
    prev.(m)

  let split_runs = Prefix_hds.Lcs.split_runs
end

module Detector_ref = struct
  open Detector

  let hot_table (config : config) stats =
    let hot = Hashtbl.create 256 in
    List.iter
      (fun (o : Trace_stats.obj_info) -> Hashtbl.replace hot o.obj ())
      (Trace_stats.hot_objects ~coverage:config.coverage stats);
    hot

  let hot_sequence config stats trace =
    let hot = hot_table config stats in
    let out = ref [] in
    let last = ref min_int in
    Trace.iter
      (fun e ->
        match (e : Event.t) with
        | Access { obj; _ } when Hashtbl.mem hot obj && obj <> !last ->
          out := obj :: !out;
          last := obj
        | _ -> ())
      trace;
    Array.of_list (List.rev !out)

  let dominant_periods ?(config = default_config) seq =
    let n = Array.length seq in
    if n < 8 then []
    else begin
      let max_lag = min config.max_lag (n / 2) in
      let samples = 192 in
      let score lag =
        let span = n - lag in
        if span <= 0 then 0.
        else begin
          let stride = max 1 (span / samples) in
          let hits = ref 0 and total = ref 0 in
          let i = ref 0 in
          while !i < span do
            incr total;
            if seq.(!i) = seq.(!i + lag) then incr hits;
            i := !i + stride
          done;
          if !total = 0 then 0. else float_of_int !hits /. float_of_int !total
        end
      in
      let scored = ref [] in
      for lag = 1 to max_lag do
        let s = score lag in
        if s >= 0.5 then scored := (lag, s) :: !scored
      done;
      let by_lag = List.sort (fun (a, _) (b, _) -> compare a b) !scored in
      let chosen = ref [] in
      List.iter
        (fun (l, _) ->
          let is_multiple l0 = l mod l0 = 0 || (l mod l0 < l0 / 16) || (l0 - (l mod l0) < l0 / 16) in
          if List.length !chosen < config.max_periods
             && not (List.exists is_multiple !chosen)
          then chosen := !chosen @ [ l ])
        by_lag;
      !chosen
    end

  type candidate = { order : int list; mutable hits : int }

  let add_candidate tbl objs =
    let distinct =
      let seen = Hashtbl.create 8 in
      List.filter
        (fun o ->
          if Hashtbl.mem seen o then false
          else begin
            Hashtbl.replace seen o ();
            true
          end)
        objs
    in
    if List.length distinct >= 2 then begin
      let key = List.sort compare distinct in
      match Hashtbl.find_opt tbl key with
      | Some c -> c.hits <- c.hits + 1
      | None -> Hashtbl.replace tbl key { order = distinct; hits = 1 }
    end

  let cap_run cfg run =
    if List.length run > cfg.max_stream_len then
      List.filteri (fun i _ -> i < cfg.max_stream_len) run
    else run

  let mine_lcs cfg seq tbl =
    let n = Array.length seq in
    let periods = dominant_periods ~config:cfg seq in
    List.iter
      (fun lag ->
        let segment = min cfg.segment (max 8 (min lag ((n - lag) / 3))) in
        let span = n - lag - segment in
        if span > 0 then begin
          let n_phases = max 1 (min cfg.windows_per_lag (lag / segment)) in
          let phase_stride = max segment (lag / n_phases) in
          for k = 0 to n_phases - 1 do
            let base = k * phase_stride in
            List.iter
              (fun rep ->
                let a = base and b = base + (rep * lag) in
                if b + segment <= n && a + segment <= n then begin
                  let w1 = Array.sub seq a segment in
                  let w2 = Array.sub seq b segment in
                  let matches = Lcs.lcs_with_positions w1 w2 in
                  let runs = Lcs.split_runs ~max_gap:cfg.max_gap matches in
                  List.iter (fun run -> add_candidate tbl (cap_run cfg run)) runs
                end)
              [ 1; 2 ]
          done
        end)
      periods

  let mine_ngrams cfg seq tbl =
    let n = Array.length seq in
    let counts : (int list, candidate) Hashtbl.t = Hashtbl.create 4096 in
    for k = 2 to cfg.ngram_max do
      for i = 0 to n - k do
        let gram = Array.to_list (Array.sub seq i k) in
        let distinct = List.length (List.sort_uniq compare gram) = k in
        if distinct then begin
          match Hashtbl.find_opt counts gram with
          | Some c -> c.hits <- c.hits + 1
          | None -> Hashtbl.replace counts gram { order = gram; hits = 1 }
        end
      done
    done;
    let top = Hashtbl.fold (fun _ c acc -> max acc c.hits) counts 0 in
    let floor = max (max cfg.min_occurrences cfg.ngram_min_hits) (top / 50) in
    Hashtbl.iter
      (fun gram c ->
        if c.hits >= floor then begin
          match Hashtbl.find_opt tbl (List.sort compare gram) with
          | Some existing -> existing.hits <- existing.hits + c.hits
          | None ->
            Hashtbl.replace tbl (List.sort compare gram) { order = c.order; hits = c.hits }
        end)
      counts

  (* The LCS method only: the Sequitur miner is unchanged. *)
  let detect_seq ~config stats seq =
    let tbl : (int list, candidate) Hashtbl.t = Hashtbl.create 256 in
    mine_lcs config seq tbl;
    mine_ngrams config seq tbl;
    let weight_of objs =
      List.fold_left (fun acc o -> acc + (Trace_stats.obj_info stats o).accesses) 0 objs
    in
    Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
    |> List.filter (fun c -> c.hits >= config.min_occurrences)
    |> List.map (fun c -> Hds.make ~objs:c.order ~refs:(weight_of c.order * c.hits))
    |> List.sort Hds.compare_by_refs
    |> List.filteri (fun i _ -> i < config.max_streams)

  let detect_with_stats ?(config = default_config) stats trace =
    detect_seq ~config stats (hot_sequence config stats trace)
end

module Halo_ref = struct
  open Prefix_halo.Halo

  let hot_contexts config stats =
    let hot = Trace_stats.hot_objects ~coverage:config.hot_ctx_coverage stats in
    let ctxs = Hashtbl.create 64 in
    List.iter
      (fun (o : Trace_stats.obj_info) ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt ctxs o.ctx) in
        Hashtbl.replace ctxs o.ctx (cur + o.accesses))
      hot;
    Hashtbl.fold (fun ctx w acc -> (ctx, w) :: acc) ctxs []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map fst

  let affinity_matrix config stats trace hot_ctxs =
    let is_hot_ctx = Hashtbl.create 16 in
    List.iter (fun c -> Hashtbl.replace is_hot_ctx c ()) hot_ctxs;
    let ctx_of_obj = Hashtbl.create 1024 in
    List.iter
      (fun (o : Trace_stats.obj_info) ->
        if Hashtbl.mem is_hot_ctx o.ctx then Hashtbl.replace ctx_of_obj o.obj o.ctx)
      (Trace_stats.objects stats);
    let counts : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
    let ctx_accesses : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let window = Queue.create () in
    let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    Trace.iter
      (fun e ->
        match (e : Event.t) with
        | Access { obj; _ } -> (
          match Hashtbl.find_opt ctx_of_obj obj with
          | None -> ()
          | Some ctx ->
            bump ctx_accesses ctx;
            Queue.iter
              (fun other ->
                if other <> ctx then begin
                  let key = (min ctx other, max ctx other) in
                  bump counts key
                end)
              window;
            Queue.push ctx window;
            if Queue.length window > config.affinity_window then ignore (Queue.pop window))
        | _ -> ())
      trace;
    let accesses c = Option.value ~default:0 (Hashtbl.find_opt ctx_accesses c) in
    Hashtbl.fold
      (fun (a, b) ticks acc ->
        let denom = min (accesses a) (accesses b) in
        if denom = 0 then acc
        else ((a, b), float_of_int ticks /. float_of_int denom) :: acc)
      counts []
    |> List.sort (fun (_, x) (_, y) -> compare y x)

  let group config pairs hot_ctxs =
    let parent = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace parent c c) hot_ctxs;
    let rec find c =
      let p = Hashtbl.find parent c in
      if p = c then c
      else begin
        let root = find p in
        Hashtbl.replace parent c root;
        root
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    List.iter (fun ((a, b), w) -> if w >= config.min_affinity then union a b) pairs;
    let groups : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun c ->
        let r = find c in
        Hashtbl.replace groups r (c :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
      hot_ctxs;
    Hashtbl.fold (fun _ g acc -> List.sort compare g :: acc) groups []
    |> List.sort compare

  let plan_of_trace ?(config = default_config) stats trace =
    let hot_ctxs = hot_contexts config stats in
    let pairs = affinity_matrix config stats trace hot_ctxs in
    let groups = group config pairs hot_ctxs in
    { groups; hot_ctxs }
end
