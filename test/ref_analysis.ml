(* Reference implementations of the profile-analysis kernels, kept
   verbatim from their list- and tuple-based form as oracles for
   test_analysis_diff.ml: the LCS dynamic program, the LCS and n-gram
   hot-data-stream miners (with the hot-sequence pruning and candidate
   merge they share), HALO's affinity matrix and greedy grouping, and
   the statistics collector.
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

(* The statistics collector as it stood when every Access, Free and
   Realloc copied the object's record: [Trace_stats]'s [feed], [finish]
   and accessors, verbatim, over its own immutable [obj_info].  The
   library's in-place collector must give equal accessors on every
   event list and segmentation, and marshal to the same bytes. *)
module Stats_ref = struct
  module Packed = Prefix_trace.Packed
  module Stream = Prefix_trace.Stream

  type obj_info = {
    obj : int;
    site : int;
    ctx : int;
    size : int;
    alloc_size : int;
    accesses : int;
    alloc_index : int;
    free_index : int option;
    instance : int;
  }

  type site_info = Trace_stats.site_info = {
    site_id : int;
    alloc_count : int;
    site_objects : int list;
    site_accesses : int;
  }

  type t = {
    objs : (int, obj_info) Hashtbl.t; (* current (latest) incarnation per id *)
    all_objects : obj_info list; (* every incarnation, allocation order *)
    site_tbl : (int, site_info) Hashtbl.t;
    site_members : (int, obj_info list) Hashtbl.t; (* per-incarnation, alloc order *)
    total_accesses : int;
    max_live : int;
    reused : int;
    trace_len : int;
  }

  (* ---- online collector ------------------------------------------------

     The analysis is a single left-to-right fold, so it streams: [feed] a
     packed segment at a time (with the global index of its first event)
     and [finish] once.  [analyze]/[analyze_packed]/[analyze_stream] are
     all the same collector, which is what makes the streamed and
     materialized statistics exactly equal. *)

  type collector = {
    c_objs : (int, obj_info) Hashtbl.t;
    mutable c_archived : obj_info list; (* superseded incarnations of reused ids *)
    c_site_counts : (int, int) Hashtbl.t;
    c_site_objs : (int, int list) Hashtbl.t; (* reversed allocation order *)
    mutable c_total_accesses : int;
    mutable c_live : int;
    mutable c_max_live : int;
    mutable c_reused : int;
    mutable c_len : int;
  }

  let collector () =
    { c_objs = Hashtbl.create 1024;
      c_archived = [];
      c_site_counts = Hashtbl.create 64;
      c_site_objs = Hashtbl.create 64;
      c_total_accesses = 0;
      c_live = 0;
      c_max_live = 0;
      c_reused = 0;
      c_len = 0 }

  let feed c ~base packed =
    let c_objs = c.c_objs in
    Packed.iteri
      ~alloc:(fun index ~obj ~site ~ctx ~size ~thread:_ ->
        let index = base + index in
        (* A reused id starts a new incarnation: the old info is archived
           (not overwritten, which double-counted the id in [objects])
           and, if the old incarnation was never freed, it stops being
           live here — an id names at most one live object. *)
        (match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some old ->
          c.c_reused <- c.c_reused + 1;
          c.c_archived <- old :: c.c_archived;
          if old.free_index = None then c.c_live <- c.c_live - 1);
        let instance = 1 + Option.value ~default:0 (Hashtbl.find_opt c.c_site_counts site) in
        Hashtbl.replace c.c_site_counts site instance;
        Hashtbl.replace c.c_site_objs site
          (obj :: Option.value ~default:[] (Hashtbl.find_opt c.c_site_objs site));
        Hashtbl.replace c_objs obj
          { obj; site; ctx; size; alloc_size = size; accesses = 0; alloc_index = index;
            free_index = None; instance };
        c.c_live <- c.c_live + 1;
        if c.c_live > c.c_max_live then c.c_max_live <- c.c_live)
      ~access:(fun _ ~obj ~offset:_ ~write:_ ~thread:_ ->
        c.c_total_accesses <- c.c_total_accesses + 1;
        match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some info -> Hashtbl.replace c_objs obj { info with accesses = info.accesses + 1 })
      ~free:(fun index ~obj ~thread:_ ->
        let index = base + index in
        match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some info ->
          (* Only the first Free ends the lifetime; a duplicate free (which
             lenient replay tolerates) must not drive [live] negative. *)
          if info.free_index = None then begin
            Hashtbl.replace c_objs obj { info with free_index = Some index };
            c.c_live <- c.c_live - 1
          end)
      ~realloc:(fun _ ~obj ~new_size ~thread:_ ->
        match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some info -> Hashtbl.replace c_objs obj { info with size = new_size })
      packed;
    c.c_len <- c.c_len + Packed.length packed

  let finish c =
    let current = Hashtbl.fold (fun _ info acc -> info :: acc) c.c_objs [] in
    let all_objects =
      List.sort (fun a b -> compare a.alloc_index b.alloc_index) (c.c_archived @ current)
    in
    let site_members = Hashtbl.create 64 in
    List.iter
      (fun info ->
        Hashtbl.replace site_members info.site
          (info :: Option.value ~default:[] (Hashtbl.find_opt site_members info.site)))
      (List.rev all_objects);
    let site_tbl = Hashtbl.create 64 in
    Hashtbl.iter
      (fun site_id alloc_count ->
        let site_objects =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt c.c_site_objs site_id))
        in
        let site_accesses =
          List.fold_left
            (fun acc (info : obj_info) -> acc + info.accesses)
            0
            (Option.value ~default:[] (Hashtbl.find_opt site_members site_id))
        in
        Hashtbl.replace site_tbl site_id { site_id; alloc_count; site_objects; site_accesses })
      c.c_site_counts;
    { objs = c.c_objs;
      all_objects;
      site_tbl;
      site_members;
      total_accesses = c.c_total_accesses;
      max_live = c.c_max_live;
      reused = c.c_reused;
      trace_len = c.c_len }

  let events_fed c = c.c_len

  let analyze_packed packed =
    let c = collector () in
    feed c ~base:0 packed;
    finish c

  let analyze trace = analyze_packed (Packed.of_trace trace)

  let analyze_stream stream =
    let c = collector () in
    Stream.iter_segments stream (fun ~base seg -> feed c ~base seg);
    finish c

  let objects t = t.all_objects

  let obj_info t obj =
    match Hashtbl.find_opt t.objs obj with
    | Some info -> info
    | None -> raise Not_found

  let sites t =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.site_tbl []
    |> List.sort (fun a b -> compare a.site_id b.site_id)

  let site_info t site =
    match Hashtbl.find_opt t.site_tbl site with
    | Some s -> s
    | None -> raise Not_found

  let total_heap_accesses t = t.total_accesses

  let max_live_objects t = t.max_live

  let reused_ids t = t.reused

  let trace_length t = t.trace_len

  let max_live_objects_of_site t site =
    match Hashtbl.find_opt t.site_members site with
    | None -> 0
    | Some members ->
      (* Sweep the per-incarnation intervals of this site. *)
      let events =
        List.concat_map
          (fun (info : obj_info) ->
            let fin = Option.value ~default:t.trace_len info.free_index in
            [ (info.alloc_index, 1); (fin, -1) ])
          members
        |> List.sort compare
      in
      let live = ref 0 and best = ref 0 in
      List.iter
        (fun (_, d) ->
          live := !live + d;
          if !live > !best then best := !live)
        events;
      !best

  let hot_objects ?(coverage = 0.9) ?(min_accesses = 4) t =
    let all =
      objects t
      |> List.filter (fun o -> o.accesses >= max 1 min_accesses)
      |> List.sort (fun a b -> compare b.accesses a.accesses)
    in
    let target = coverage *. float_of_int t.total_accesses in
    let rec take acc covered = function
      | [] -> List.rev acc
      | o :: rest ->
        if covered >= target then List.rev acc
        else take (o :: acc) (covered +. float_of_int o.accesses) rest
    in
    take [] 0. all

  let heap_access_share t objs =
    if t.total_accesses = 0 then 0.
    else
      let seen = Hashtbl.create (List.length objs) in
      let acc =
        List.fold_left
          (fun acc o ->
            if Hashtbl.mem seen o then acc
            else begin
              Hashtbl.replace seen o ();
              match Hashtbl.find_opt t.objs o with
              | None -> acc
              | Some info -> acc + info.accesses
            end)
          0 objs
      in
      float_of_int acc /. float_of_int t.total_accesses

  let lifetimes_overlap t a b =
    let ia = obj_info t a and ib = obj_info t b in
    let fin i = Option.value ~default:t.trace_len i.free_index in
    ia.alloc_index < fin ib && ib.alloc_index < fin ia
end
