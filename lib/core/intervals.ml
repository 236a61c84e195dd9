module Packed = Prefix_trace.Packed
module Trace = Prefix_trace.Trace

type interval = {
  iv_obj : int;
  iv_site : int;
  iv_ctx : int;
  iv_size : int;
  iv_incarnation : int;
  iv_start : int;
  iv_stop : int;
  iv_freed : bool;
}

(* Sorted by [iv_start]. *)
type t = interval array

(* One live (not yet closed) incarnation. *)
type live = {
  l_site : int;
  l_ctx : int;
  mutable l_size : int;
  l_inc : int;
  l_start : int;
  mutable l_last : int;
}

type collector = {
  live : (int, live) Hashtbl.t;
  mutable closed : interval list;
  incarnations : (int, int) Hashtbl.t;
}

let collector () = { live = Hashtbl.create 256; closed = []; incarnations = Hashtbl.create 256 }

let close c obj (l : live) ~freed =
  c.closed <-
    { iv_obj = obj;
      iv_site = l.l_site;
      iv_ctx = l.l_ctx;
      iv_size = l.l_size;
      iv_incarnation = l.l_inc;
      iv_start = l.l_start;
      iv_stop = l.l_last;
      iv_freed = freed }
    :: c.closed

let feed c ~base packed =
  Packed.iteri
    ~alloc:(fun i ~obj ~site ~ctx ~size ~thread:_ ->
      (* A reused id (corrupted / lenient trace) ends the previous
         incarnation where it was last seen; each incarnation keeps its
         own interval. *)
      (match Hashtbl.find_opt c.live obj with
      | Some l ->
        close c obj l ~freed:false;
        Hashtbl.remove c.live obj
      | None -> ());
      let inc = 1 + Option.value ~default:0 (Hashtbl.find_opt c.incarnations obj) in
      Hashtbl.replace c.incarnations obj inc;
      let pos = base + i in
      Hashtbl.replace c.live obj
        { l_site = site; l_ctx = ctx; l_size = size; l_inc = inc; l_start = pos; l_last = pos })
    ~access:(fun i ~obj ~offset:_ ~write:_ ~thread:_ ->
      (* Accesses to unknown ids (use-after-free injected under lenient
         replay) extend nothing. *)
      match Hashtbl.find_opt c.live obj with
      | Some l -> l.l_last <- base + i
      | None -> ())
    ~free:(fun i ~obj ~thread:_ ->
      match Hashtbl.find_opt c.live obj with
      | Some l ->
        l.l_last <- base + i;
        close c obj l ~freed:true;
        Hashtbl.remove c.live obj
      | None -> () (* duplicate free: first free ended the interval *))
    ~realloc:(fun i ~obj ~new_size ~thread:_ ->
      match Hashtbl.find_opt c.live obj with
      | Some l ->
        l.l_last <- base + i;
        l.l_size <- max l.l_size new_size
      | None -> ())
    packed

let finish c =
  Hashtbl.iter (fun obj l -> close c obj l ~freed:false) c.live;
  Hashtbl.reset c.live;
  let ivs = Array.of_list c.closed in
  (* Starts are distinct event indices, so this order is total. *)
  Array.sort (fun a b -> compare a.iv_start b.iv_start) ivs;
  ivs

let of_packed p =
  let c = collector () in
  feed c ~base:0 p;
  finish c

let of_trace tr = of_packed (Packed.of_trace tr)

let intervals t = t

(* ---- Greedy interval-graph coloring ---------------------------------- *)

(* Tiny binary min-heap over (key, payload) int pairs — enough for the
   active-interval sweep without pulling in a dependency. *)
module Heap = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable n : int }

  let create () = { keys = Array.make 16 0; vals = Array.make 16 0; n = 0 }

  let grow h =
    let cap = 2 * Array.length h.keys in
    let nk = Array.make cap 0 and nv = Array.make cap 0 in
    Array.blit h.keys 0 nk 0 h.n;
    Array.blit h.vals 0 nv 0 h.n;
    h.keys <- nk;
    h.vals <- nv

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let push h k v =
    if h.n = Array.length h.keys then grow h;
    h.keys.(h.n) <- k;
    h.vals.(h.n) <- v;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if h.keys.(p) > h.keys.(!i) || (h.keys.(p) = h.keys.(!i) && h.vals.(p) > h.vals.(!i))
      then begin
        swap h p !i;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let min_key h = if h.n = 0 then None else Some h.keys.(0)

  let pop h =
    let k = h.keys.(0) and v = h.vals.(0) in
    h.n <- h.n - 1;
    h.keys.(0) <- h.keys.(h.n);
    h.vals.(0) <- h.vals.(h.n);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      let lt a b =
        h.keys.(a) < h.keys.(b) || (h.keys.(a) = h.keys.(b) && h.vals.(a) < h.vals.(b))
      in
      if l < h.n && lt l !smallest then smallest := l;
      if r < h.n && lt r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue_ := false
    done;
    (k, v)
end

(* Sweep the (already start-sorted) intervals, releasing colors when an
   interval's [stop] has passed and reusing the smallest free color —
   greedy-by-start is optimal on interval graphs, so the color count is
   exactly the maximum overlap.  [stop_of] lets callers pin intervals
   whose end is not trusted (never-freed objects keep their slot). *)
let color_with t ~stop_of =
  let n = Array.length t in
  let colors = Array.make n 0 in
  let active = Heap.create () in
  let free = Heap.create () in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let iv = t.(i) in
    let rec drain () =
      match Heap.min_key active with
      | Some stop when stop < iv.iv_start ->
        let _, c = Heap.pop active in
        Heap.push free c c;
        drain ()
      | _ -> ()
    in
    drain ();
    let c =
      if free.Heap.n > 0 then snd (Heap.pop free)
      else begin
        let c = !next in
        incr next;
        c
      end
    in
    colors.(i) <- c;
    Heap.push active (stop_of iv) c
  done;
  colors

let slot_assignment t ~sites ?required_ctx ~n_slots () =
  if n_slots <= 0 then invalid_arg "Intervals.slot_assignment: n_slots must be positive";
  let site_set = Hashtbl.create (List.length sites) in
  List.iter (fun s -> Hashtbl.replace site_set s ()) sites;
  let mine =
    Array.of_list
      (List.filter
         (fun iv ->
           Hashtbl.mem site_set iv.iv_site
           && match required_ctx with None -> true | Some c -> iv.iv_ctx = c)
         (Array.to_list t))
  in
  (* A never-freed object never releases its arena slot at runtime, so
     its interval is pinned open: later instances must not share it. *)
  let colors =
    color_with mine ~stop_of:(fun iv -> if iv.iv_freed then iv.iv_stop else max_int)
  in
  (* Instance ids are 1-based positions in trace order over exactly the
     allocations that advance the runtime counter — [mine] is already in
     that order (sorted by alloc index, filtered by site and gate). *)
  List.init (Array.length mine) (fun i -> (i + 1, colors.(i) mod n_slots))

let align16 n = (n + 15) / 16 * 16

let peak_live_bytes t ~sites =
  let site_set =
    Option.map
      (fun ss ->
        let h = Hashtbl.create (List.length ss) in
        List.iter (fun s -> Hashtbl.replace h s ()) ss;
        h)
      sites
  in
  let keep iv =
    match site_set with None -> true | Some h -> Hashtbl.mem h iv.iv_site
  in
  let events =
    Array.to_list t
    |> List.filter keep
    |> List.concat_map (fun iv ->
           let stop = if iv.iv_freed then iv.iv_stop else max_int in
           let b = align16 iv.iv_size in
           (* Deltas at equal indices: frees (at the free event) happen
              before the alloc that might reuse the space one event
              later, so order closes (+1 tiebreak) after opens would be
              wrong — distinct event indices make ties impossible except
              via the max_int pin, where order is irrelevant. *)
           [ ((iv.iv_start, 0), b); ((stop, 1), -b) ])
    |> List.sort compare
  in
  let live = ref 0 and peak = ref 0 in
  List.iter
    (fun (_, d) ->
      live := !live + d;
      if !live > !peak then peak := !live)
    events;
  !peak
