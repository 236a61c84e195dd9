type obj_info = {
  obj : int;
  site : int;
  ctx : int;
  mutable size : int;
  alloc_size : int;
  mutable accesses : int;
  alloc_index : int;
  mutable free_index : int option;
  instance : int;
}

type site_info = {
  site_id : int;
  alloc_count : int;
  site_objects : int list;
  site_accesses : int;
}

type t = {
  objs : (int, obj_info) Hashtbl.t; (* current (latest) incarnation per id *)
  all_objects : obj_info list; (* every incarnation, allocation order *)
  by_accesses : obj_info array; (* the same, most accessed first, ties in allocation order *)
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
      match Hashtbl.find c_objs obj with
      | info -> info.accesses <- info.accesses + 1
      | exception Not_found -> ())
    ~free:(fun index ~obj ~thread:_ ->
      let index = base + index in
      match Hashtbl.find c_objs obj with
      | info ->
        (* Only the first Free ends the lifetime; a duplicate free (which
           lenient replay tolerates) must not drive [live] negative. *)
        if info.free_index = None then begin
          info.free_index <- Some index;
          c.c_live <- c.c_live - 1
        end
      | exception Not_found -> ())
    ~realloc:(fun _ ~obj ~new_size ~thread:_ ->
      match Hashtbl.find c_objs obj with
      | info -> info.size <- new_size
      | exception Not_found -> ())
    packed;
  c.c_len <- c.c_len + Packed.length packed

let finish c =
  let current = Hashtbl.fold (fun _ info acc -> info :: acc) c.c_objs [] in
  let by_alloc = Array.of_list (c.c_archived @ current) in
  Array.stable_sort (fun a b -> Int.compare a.alloc_index b.alloc_index) by_alloc;
  let all_objects = Array.to_list by_alloc in
  let by_accesses = Array.copy by_alloc in
  Array.stable_sort (fun a b -> Int.compare b.accesses a.accesses) by_accesses;
  let site_members = Hashtbl.create 64 in
  for i = Array.length by_alloc - 1 downto 0 do
    let info = by_alloc.(i) in
    Hashtbl.replace site_members info.site
      (info :: Option.value ~default:[] (Hashtbl.find_opt site_members info.site))
  done;
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
    by_accesses;
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

let obj_info t obj = Hashtbl.find t.objs obj

let sites t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.site_tbl []
  |> List.sort (fun a b -> compare a.site_id b.site_id)

let site_info t site =
  match Hashtbl.find_opt t.site_tbl site with
  | Some s -> s
  | None -> raise Not_found

let site_members t site = Option.value ~default:[] (Hashtbl.find_opt t.site_members site)

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

(* A prefix of [by_accesses]: the objects accessed at least
   [min_accesses] times come first there, already in order. *)
let hot_objects ?(coverage = 0.9) ?(min_accesses = 4) t =
  let min_accesses = max 1 min_accesses in
  let target = coverage *. float_of_int t.total_accesses in
  let rec take acc covered i =
    if i = Array.length t.by_accesses then List.rev acc
    else begin
      let o = t.by_accesses.(i) in
      if o.accesses < min_accesses || covered >= target then List.rev acc
      else take (o :: acc) (covered +. float_of_int o.accesses) (i + 1)
    end
  in
  take [] 0. 0

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
