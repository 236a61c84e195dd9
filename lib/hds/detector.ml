module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream

type method_ = Lcs | Sequitur

type config = {
  coverage : float;
  segment : int;
  max_gap : int;
  min_occurrences : int;
  max_streams : int;
  max_stream_len : int;
  max_lag : int;
  max_periods : int;
  windows_per_lag : int;
  ngram_max : int;
  ngram_min_hits : int;
}

let default_config =
  { coverage = 0.9;
    segment = 256;
    max_gap = 4;
    min_occurrences = 2;
    max_streams = 64;
    max_stream_len = 32;
    max_lag = 16384;
    max_periods = 3;
    windows_per_lag = 32;
    ngram_max = 4;
    ngram_min_hits = 6 }

let hot_table config stats =
  let hot = Hashtbl.create 256 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace hot o.obj ())
    (Trace_stats.hot_objects ~coverage:config.coverage stats);
  hot

(* The pruned sequence is collected in a doubling int array: about one
   word per element, where a list takes three. *)
type seq_buf = { mutable data : int array; mutable len : int }

let push buf obj =
  if buf.len = Array.length buf.data then begin
    let data = Array.make (2 * buf.len) 0 in
    Array.blit buf.data 0 data 0 buf.len;
    buf.data <- data
  end;
  buf.data.(buf.len) <- obj;
  buf.len <- buf.len + 1

(* Accesses to hot objects, adjacent duplicates collapsed. *)
let pruned config stats iter =
  let hot = hot_table config stats in
  let buf = { data = Array.make 1024 0; len = 0 } in
  let last = ref min_int in
  iter (fun obj ->
      if obj <> !last && Hashtbl.mem hot obj then begin
        push buf obj;
        last := obj
      end);
  Array.sub buf.data 0 buf.len

let hot_sequence ?(config = default_config) stats trace =
  pruned config stats (fun visit ->
      Trace.iter (function Event.Access { obj; _ } -> visit obj | _ -> ()) trace)

(* Streaming variant: the pruned sequence (hot accesses, adjacent
   duplicates collapsed) is far smaller than the trace, so mining stays
   in memory while the trace itself never is. *)
let hot_sequence_stream ?(config = default_config) stats stream =
  pruned config stats (fun visit ->
      Stream.iter_segments stream (fun ~base:_ seg ->
          Packed.iteri ~access:(fun _ ~obj ~offset:_ ~write:_ ~thread:_ -> visit obj) seg))

(* Sampled autocorrelation: for each candidate lag, the fraction of
   sampled positions i with seq.(i) = seq.(i + lag).  Periodic traversal
   patterns light up at (multiples of) their period. *)
let dominant_periods ?(config = default_config) (seq : int array) =
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
    (* Periods are exact in pruned-sequence position space and object
       ids rarely repeat within a period, so near-miss lags score zero:
       every lag must be probed.  The sampled score keeps the full scan
       cheap (max_lag * samples comparisons). *)
    let scored = ref [] in
    for lag = 1 to max_lag do
      let s = score lag in
      if s >= 0.5 then scored := (lag, s) :: !scored
    done;
    (* Prefer the smallest strong lags (fundamental periods rather than
       their multiples), dropping near-multiples of already-chosen ones. *)
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

(* Candidate accumulation: canonical key is the sorted member list; we keep
   the first-seen adjacency order and count occurrences. *)
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

(* Windows are sampled at period-aligned positions: the window at phase
   [p] is compared with the windows exactly one and two periods later,
   so the same recurring content is matched repeatedly and candidate
   occurrence counts accumulate (a window compared at arbitrary offsets
   would see different objects every time and never reach the
   min_occurrences threshold). *)
let mine_lcs cfg seq tbl =
  let n = Array.length seq in
  let periods = dominant_periods ~config:cfg seq in
  List.iter
    (fun lag ->
      (* Short sequences (or short periods) get proportionally smaller
         windows so that there is always room for two recurrences. *)
      let segment = min cfg.segment (max 8 (min lag ((n - lag) / 3))) in
      let span = n - lag - segment in
      if span > 0 then begin
        (* Phases cover the period at [segment] granularity, bounded by
           the window budget. *)
        let n_phases = max 1 (min cfg.windows_per_lag (lag / segment)) in
        let phase_stride = max segment (lag / n_phases) in
        for k = 0 to n_phases - 1 do
          let base = k * phase_stride in
          (* Compare the phase window against its next two recurrences. *)
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

(* Frequent n-gram mining: hot data streams that recur at irregular
   distances (a fixed chain consulted from otherwise unordered scans)
   have no usable autocorrelation peak, but their adjacent k-grams
   repeat verbatim.  Count every k-gram of distinct objects and promote
   the frequent ones to candidates.  Incidental repeats of unrelated
   digrams are filtered by the [ngram_min_hits] floor.

   Counting allocates nothing per position.  For one gram length k, an
   open-addressing table over [slots] (entry index, or -1 when empty)
   finds a gram by comparing sequence slices in place.  Entries are
   dense, in first-occurrence order, and hold a gram's first position
   and its count; there are twice as many slots as entry places, so the
   load stays at most one half.  The table doubles with the number of
   distinct grams, never with the sequence length, and is reused for
   every k. *)
type gram_table = {
  mutable k : int;
  mutable slots : int array;
  mutable first : int array;
  mutable count : int array;
  mutable distinct : int;
}

let gram_hash (seq : int array) i k =
  let h = ref k in
  for j = i to i + k - 1 do
    let x = (!h lxor seq.(j)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h

let rec same_gram (seq : int array) i j k d =
  d = k || (seq.(i + d) = seq.(j + d) && same_gram seq i j k (d + 1))

let distinct_gram (seq : int array) i k =
  let ok = ref true in
  for a = i to i + k - 2 do
    for b = a + 1 to i + k - 1 do
      if seq.(a) = seq.(b) then ok := false
    done
  done;
  !ok

(* Slot of the gram at [i], or the empty slot where it belongs. *)
let find_slot seq t i h =
  let mask = Array.length t.slots - 1 in
  let s = ref (h land mask) in
  while
    let e = t.slots.(!s) in
    e >= 0 && not (same_gram seq t.first.(e) i t.k 0)
  do
    s := (!s + 1) land mask
  done;
  !s

(* Doubles the slots and the entry arrays; entries keep their indices. *)
let grow seq t =
  let cap = 2 * Array.length t.first in
  t.slots <- Array.make (2 * cap) (-1);
  for e = 0 to t.distinct - 1 do
    let first = t.first.(e) in
    t.slots.(find_slot seq t first (gram_hash seq first t.k)) <- e
  done;
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.distinct;
    b
  in
  t.first <- widen t.first;
  t.count <- widen t.count

let count_grams t seq k =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.k <- k;
  t.distinct <- 0;
  for i = 0 to Array.length seq - k do
    if distinct_gram seq i k then begin
      let h = gram_hash seq i k in
      let s = find_slot seq t i h in
      let e = t.slots.(s) in
      if e >= 0 then t.count.(e) <- t.count.(e) + 1
      else begin
        let s =
          if t.distinct < Array.length t.first then s
          else begin
            grow seq t;
            find_slot seq t i h
          end
        in
        let e = t.distinct in
        t.slots.(s) <- e;
        t.first.(e) <- i;
        t.count.(e) <- 1;
        t.distinct <- e + 1
      end
    end
  done

let mine_ngrams cfg seq tbl =
  let t =
    { k = 0; slots = Array.make 256 (-1); first = Array.make 128 0; count = Array.make 128 0; distinct = 0 }
  in
  (* No gram below [base] can clear the floor, so only the others are
     kept from each k's table: (k, first position, count), newest
     first. *)
  let base = max cfg.min_occurrences cfg.ngram_min_hits in
  let kept = ref [] and top = ref 0 and total = ref 0 in
  for k = 2 to cfg.ngram_max do
    count_grams t seq k;
    total := !total + t.distinct;
    for e = 0 to t.distinct - 1 do
      let c = t.count.(e) in
      if c > !top then top := c;
      if c >= base then kept := (k, t.first.(e), c) :: !kept
    done
  done;
  (* The floor adapts to the strongest candidate: a stream consulted
     thousands of times (analyzer's index trio) makes coincidental
     neighbours look frequent in absolute terms, while a genuinely
     recurring chain in a short profile may only repeat a handful of
     times. *)
  let floor = max base (!top / 50) in
  (* Several orders of one member set can clear the floor; the first
     one merged gives the candidate its order, so which one comes first
     is part of the output.  It is the gram that [Hashtbl.iter] yields
     first from an int-list-keyed table of every distinct gram, as in
     the reference miner (test/ref_analysis.ml).  The survivors alone
     reproduce that order: a key's bucket depends only on the key and
     the bucket count, and a bucket lists its keys newest first.  So
     they go into a [Hashtbl] with the bucket count the full table ends
     at (4096, doubled while the grams outnumber twice the buckets), in
     the full table's insertion order (k ascending, first occurrence
     within k), and are merged in its iteration order. *)
  let rec buckets b = if !total > 2 * b then buckets (2 * b) else b in
  let survivors = Hashtbl.create (buckets 4096) in
  List.iter
    (fun (k, first, c) ->
      if c >= floor then Hashtbl.replace survivors (Array.to_list (Array.sub seq first k)) c)
    (List.rev !kept);
  Hashtbl.iter
    (fun gram hits ->
      let key = List.sort compare gram in
      match Hashtbl.find_opt tbl key with
      | Some existing -> existing.hits <- existing.hits + hits
      | None -> Hashtbl.replace tbl key { order = gram; hits })
    survivors

let mine_sequitur cfg seq tbl =
  let g = Sequitur.build seq in
  List.iter
    (fun (expansion, usage) ->
      if usage >= cfg.min_occurrences then begin
        let objs = cap_run cfg (Array.to_list expansion) in
        (* Register once per usage so occurrence thresholds mean the same
           thing for both miners. *)
        for _ = 1 to usage do
          add_candidate tbl objs
        done
      end)
    (Sequitur.rules g)

(* Mining operates on the pruned hot-access sequence only; the trace
   source (boxed or streamed) matters solely to [hot_sequence*]. *)
let detect_seq ~config ~method_ stats seq =
  let tbl : (int list, candidate) Hashtbl.t = Hashtbl.create 256 in
  (match method_ with
  | Lcs ->
    mine_lcs config seq tbl;
    mine_ngrams config seq tbl
  | Sequitur -> mine_sequitur config seq tbl);
  let weight_of objs =
    List.fold_left (fun acc o -> acc + (Trace_stats.obj_info stats o).accesses) 0 objs
  in
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.filter (fun c -> c.hits >= config.min_occurrences)
  |> List.map (fun c -> Hds.make ~objs:c.order ~refs:(weight_of c.order * c.hits))
  |> List.sort Hds.compare_by_refs
  |> List.filteri (fun i _ -> i < config.max_streams)

let detect_with_stats ?(config = default_config) ?(method_ = Lcs) stats trace =
  detect_seq ~config ~method_ stats (hot_sequence ~config stats trace)

let detect_stream ?(config = default_config) ?(method_ = Lcs) stats stream =
  detect_seq ~config ~method_ stats (hot_sequence_stream ~config stats stream)

let detect ?config ?method_ trace =
  let stats = Trace_stats.analyze trace in
  detect_with_stats ?config ?method_ stats trace
