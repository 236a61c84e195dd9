type alloc = { pos : int; obj : int; hot : bool }

type site_allocs = { site : int; allocs : alloc list }

type group = {
  counter : int;
  sites : int list;
  pattern : Context.pattern;
  hot_assignments : (int * int) list;
  total : int;
}

(* A site's allocations ordered by position; equal positions keep
   their list order.  Sorts only when the list is out of order. *)
let by_pos s =
  let a = Array.of_list s.allocs in
  let sorted = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1).pos > a.(i).pos then sorted := false
  done;
  if not !sorted then Array.stable_sort (fun x y -> Int.compare x.pos y.pos) a;
  a

(* [f id alloc] over the stable merge of two position-ordered runs — [a]'s
   allocation first on equal positions, so sorting the concatenation of
   several sites' lists is the left fold of this over their [by_pos]
   runs — walked from the last allocation back, [id] being the 1-based
   shared instance id. *)
let merge_rev a b f =
  let i = ref (Array.length a - 1) and j = ref (Array.length b - 1) in
  for id = Array.length a + Array.length b downto 1 do
    if !i < 0 || (!j >= 0 && b.(!j).pos >= a.(!i).pos) then begin
      f id b.(!j);
      decr j
    end
    else begin
      f id a.(!i);
      decr i
    end
  done

let merge a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else begin
    let out = Array.make (Array.length a + Array.length b) a.(0) in
    merge_rev a b (fun id x -> out.(id - 1) <- x);
    out
  end

let simulate sites =
  let merged = List.fold_left (fun acc s -> merge acc (by_pos s)) [||] sites in
  Array.to_list (Array.mapi (fun i a -> (i + 1, a.obj, a.hot)) merged)

(* Ascending shared instance ids of the hot allocations of [a] and [b]
   numbered together, without building the merged run. *)
let hot_ids a b =
  let ids = ref [] in
  merge_rev a b (fun id x -> if x.hot then ids := id :: !ids);
  !ids

(* A candidate grouping is viable if its hot ids still form a supported
   pattern under the shared numbering: All and Regular always qualify; a
   Fixed set qualifies when it is a single consecutive run (sites working
   "in tandem", like mcf's three graph allocations) or stays very small. *)
let viable ~max_fixed run own =
  match hot_ids run own with
  | [] -> false
  | first :: _ as hot_ids -> (
    let total = Array.length run + Array.length own in
    match Context.infer ~hot_instances:hot_ids ~total_instances:total with
    | Context.Fixed ids ->
      let n = List.length ids in
      let last = List.nth ids (n - 1) in
      last - first + 1 = n || n <= max_fixed
    | _ -> true)

let build_group counter sites run =
  let hot_assignments = ref [] in
  merge_rev run [||] (fun id x -> if x.hot then hot_assignments := (id, x.obj) :: !hot_assignments);
  let total = Array.length run in
  { counter;
    sites = List.map (fun s -> s.site) sites;
    pattern = Context.infer ~hot_instances:(hot_ids run [||]) ~total_instances:total;
    hot_assignments = !hot_assignments;
    total }

let share ?(max_fixed = 3) ?(enable = true) sites =
  List.iter
    (fun s ->
      if not (List.exists (fun a -> a.hot) s.allocs) then
        invalid_arg
          (Printf.sprintf "Counters.share: site %d allocates no hot object" s.site))
    sites;
  let first_pos s = match s.allocs with [] -> max_int | a :: _ -> a.pos in
  let sites = List.sort (fun a b -> compare (first_pos a) (first_pos b)) sites in
  if not enable then List.mapi (fun i s -> build_group i [ s ] (by_pos s)) sites
  else begin
    (* groups: (site list, their merged allocations), in creation order;
       a join attempt walks the group's run and the site's together, and
       only a join builds the merged run. *)
    let groups = ref [] in
    List.iter
      (fun s ->
        let own = by_pos s in
        let rec try_join acc = function
          | [] -> groups := !groups @ [ ([ s ], own) ]
          | ((g, run) as group) :: rest ->
            if viable ~max_fixed run own then
              groups := List.rev_append acc ((g @ [ s ], merge run own) :: rest)
            else try_join (group :: acc) rest
        in
        try_join [] !groups)
      sites;
    List.mapi (fun i (g, run) -> build_group i g run) !groups
  end

let num_counters groups = List.length groups
