module Hds = Prefix_hds.Hds
module IntSet = Set.Make (Int)

type result = {
  rhds : Hds.t list;
  singletons : int list;
  coverage : coverage list;
}

and coverage = Fully_covered | Partially_covered | Not_covered

(* Merge [remaining] into an existing stream so that the shared objects sit
   between the two streams' private objects where possible: if the shared
   objects live near the front of the existing order, the newcomers go in
   front; otherwise they go at the back.  This realises the paper's "two
   HDS can always be laid out adjacent with common objects in the middle". *)
let merge_orders existing_order remaining shared =
  let n = List.length existing_order in
  let positions =
    List.mapi (fun i o -> (i, o)) existing_order
    |> List.filter (fun (_, o) -> IntSet.mem o shared)
    |> List.map fst
  in
  let front =
    match positions with
    | [] -> false
    | _ ->
      let avg =
        float_of_int (List.fold_left ( + ) 0 positions) /. float_of_int (List.length positions)
      in
      avg < float_of_int n /. 2.
  in
  if front then remaining @ existing_order else existing_order @ remaining

type entry = { mutable objs : int list; mutable set : IntSet.t; mutable merged : bool; refs : int }

let reconstitute ohds =
  let ohds = List.sort Hds.compare_by_refs ohds in
  let entries : entry list ref = ref [] in
  (* [entries] is kept in insertion order (head = oldest) via append. *)
  let singletons = ref [] in
  (* Every object of [entries]: grown as streams are included or merged. *)
  let placed = ref IntSet.empty in
  List.iter
    (fun current ->
      let cset = Hds.obj_set current in
      let remaining = Hds.diff_objs current !placed in
      if remaining = [] then () (* fully represented already: nothing to do *)
      else if IntSet.disjoint cset !placed then begin
        (* Unchanged inclusion. *)
        entries :=
          !entries
          @ [ { objs = Hds.objs current;
                set = cset;
                merged = false;
                refs = Hds.refs current } ];
        placed := IntSet.union !placed cset
      end
      else begin
        (* Shares objects with RHDS: try to merge the remainder into the
           first not-yet-merged stream that shares an object. *)
        let done_ = ref false in
        List.iter
          (fun e ->
            if (not !done_) && (not e.merged) && not (IntSet.is_empty (IntSet.inter cset e.set))
            then begin
              e.merged <- true;
              let shared = IntSet.inter cset e.set in
              e.objs <- merge_orders e.objs remaining shared;
              let added = IntSet.of_list remaining in
              e.set <- IntSet.union e.set added;
              placed := IntSet.union !placed added;
              done_ := true
            end)
          !entries;
        if not !done_ then begin
          match remaining with
          | [ single ] -> singletons := !singletons @ [ single ]
          | _ :: _ :: _ ->
            let set = IntSet.of_list remaining in
            entries :=
              !entries @ [ { objs = remaining; set; merged = false; refs = Hds.refs current } ];
            placed := IntSet.union !placed set
          | [] -> assert false
        end
      end)
    ohds;
  let rhds = List.map (fun e -> Hds.make ~objs:e.objs ~refs:e.refs) !entries in
  let covered = !placed in
  let coverage =
    List.map
      (fun h ->
        let inter = IntSet.inter (Hds.obj_set h) covered in
        if IntSet.cardinal inter = Hds.cardinal h then Fully_covered
        else if IntSet.is_empty inter then Not_covered
        else Partially_covered)
      ohds
  in
  (* Singletons may have been absorbed into a later stream; drop those. *)
  let singletons = List.filter (fun o -> not (IntSet.mem o covered)) !singletons in
  { rhds; singletons; coverage }

let placement_order r =
  let seen = Hashtbl.create 64 in
  let keep o =
    if Hashtbl.mem seen o then false
    else begin
      Hashtbl.replace seen o ();
      true
    end
  in
  List.concat_map Hds.objs r.rhds @ r.singletons |> List.filter keep

let disjoint streams =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun h ->
      List.for_all
        (fun o ->
          if Hashtbl.mem seen o then false
          else begin
            Hashtbl.replace seen o ();
            true
          end)
        (Hds.objs h))
    streams
