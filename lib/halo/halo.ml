module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event

type plan = { groups : int list list; hot_ctxs : int list }

type config = {
  hot_ctx_coverage : float;
  affinity_window : int;
  min_affinity : float;
}

let default_config = { hot_ctx_coverage = 0.9; affinity_window = 64; min_affinity = 0.1 }

(* Contexts that allocate at least one hot object. *)
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

(* Int-keyed table for pair ticks; a pair (a, b) of hot-context ranks,
   a < b, is the key a * n + b over n hot contexts.  The keys are small
   and dense, so each is its own hash. *)
module Pairs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

(* Affinity: sliding window over the heap-access stream; every pair of hot
   contexts co-occurring within the window gets a tick.  Normalised by the
   smaller context's access count.  Contexts are handled by their rank in
   [hot_ctxs]: the window is a ring of ranks, per-context access counts
   an array, and the tick table grows with the pairs seen.  Beside the
   ring, [in_window] counts each rank's occurrences in it and [present]
   lists the ranks it holds, so an access adds one tick count per
   distinct rank in the window instead of one tick per window slot. *)
let affinity config stats trace hot_ctxs =
  let n = Array.length hot_ctxs in
  let rank_of_ctx = Hashtbl.create 64 in
  Array.iteri (fun r c -> Hashtbl.replace rank_of_ctx c r) hot_ctxs;
  let rank_of_obj = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      match Hashtbl.find_opt rank_of_ctx o.ctx with
      | Some r -> Hashtbl.replace rank_of_obj o.obj r
      | None -> ())
    (Trace_stats.objects stats);
  let ticks = Pairs.create 256 in
  let accesses = Array.make n 0 in
  let cap = max 0 config.affinity_window in
  let window = Array.make cap 0 in
  let filled = ref 0 and next = ref 0 in
  let in_window = Array.make n 0 in
  (* [present.(0 .. n_present - 1)] are the ranks with a nonzero
     [in_window] count; [slot.(r)] is rank [r]'s index there. *)
  let present = Array.make (min n cap) 0 and n_present = ref 0 in
  let slot = Array.make n 0 in
  let enter r =
    if in_window.(r) = 0 then begin
      present.(!n_present) <- r;
      slot.(r) <- !n_present;
      incr n_present
    end;
    in_window.(r) <- in_window.(r) + 1
  in
  let leave r =
    in_window.(r) <- in_window.(r) - 1;
    if in_window.(r) = 0 then begin
      decr n_present;
      let last = present.(!n_present) in
      present.(slot.(r)) <- last;
      slot.(last) <- slot.(r)
    end
  in
  Trace.iter
    (fun e ->
      match (e : Event.t) with
      | Access { obj; _ } -> (
        match Hashtbl.find rank_of_obj obj with
        | exception Not_found -> ()
        | r ->
          accesses.(r) <- accesses.(r) + 1;
          for p = 0 to !n_present - 1 do
            let other = present.(p) in
            if other <> r then begin
              let key = if r < other then (r * n) + other else (other * n) + r in
              match Pairs.find ticks key with
              | t -> t := !t + in_window.(other)
              | exception Not_found -> Pairs.add ticks key (ref in_window.(other))
            end
          done;
          if cap > 0 then begin
            if !filled = cap then leave window.(!next) else incr filled;
            window.(!next) <- r;
            enter r;
            next := (!next + 1) mod cap
          end)
      | _ -> ())
    trace;
  (ticks, accesses)

(* Groups are the connected components of the pairs at or above
   [min_affinity]: a partition that does not depend on the order pairs
   are united in, listed canonically (members ascending, groups in
   ascending order). *)
let group config (ticks, accesses) hot_ctxs =
  let n = Array.length hot_ctxs in
  let parent = Array.init n Fun.id in
  let rec find r =
    let p = parent.(r) in
    if p = r then r
    else begin
      let root = find p in
      parent.(r) <- root;
      root
    end
  in
  Pairs.iter
    (fun key t ->
      let a = key / n and b = key mod n in
      let denom = min accesses.(a) accesses.(b) in
      if denom > 0 && float_of_int !t /. float_of_int denom >= config.min_affinity then begin
        let ra = find a and rb = find b in
        if ra <> rb then parent.(ra) <- rb
      end)
    ticks;
  let members = Array.make n [] in
  for r = n - 1 downto 0 do
    let root = find r in
    members.(root) <- hot_ctxs.(r) :: members.(root)
  done;
  Array.fold_left (fun acc g -> if g = [] then acc else List.sort compare g :: acc) [] members
  |> List.sort compare

let plan_of_trace ?(config = default_config) stats trace =
  let hot_ctxs = hot_contexts config stats in
  let ranked = Array.of_list hot_ctxs in
  let groups = group config (affinity config stats trace ranked) ranked in
  { groups; hot_ctxs }

let ctx_in_plan plan ctx =
  let rec go i = function
    | [] -> None
    | g :: rest -> if List.mem ctx g then Some i else go (i + 1) rest
  in
  go 0 plan.groups
