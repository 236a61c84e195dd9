type slot = { offset : int; size : int }

type t = {
  rev_slots : slot list; (* placement order, last slot first *)
  count : int;
  index : (int, int) Hashtbl.t; (* obj -> slot index *)
  total : int;
}

let align = 16

let round_up n = (n + align - 1) / align * align

let assign ~size_of order =
  let index = Hashtbl.create (List.length order) in
  let rev_slots = ref [] and count = ref 0 and total = ref 0 in
  List.iter
    (fun obj ->
      if Hashtbl.mem index obj then invalid_arg "Offsets.assign: duplicate object";
      let size = size_of obj in
      if size <= 0 then invalid_arg "Offsets.assign: non-positive size";
      let size = round_up size in
      Hashtbl.replace index obj !count;
      rev_slots := { offset = !total; size } :: !rev_slots;
      incr count;
      total := !total + size)
    order;
  { rev_slots = !rev_slots; count = !count; index; total = !total }

let slots t = List.rev t.rev_slots

let slot_of_obj t obj = Hashtbl.find_opt t.index obj

let region_bytes t = t.total

let extend t ~count ~size =
  if count <= 0 || size <= 0 then invalid_arg "Offsets.extend: bad geometry";
  let size = round_up size in
  let rev_slots = ref t.rev_slots in
  for i = 0 to count - 1 do
    rev_slots := { offset = t.total + (i * size); size } :: !rev_slots
  done;
  ( { t with rev_slots = !rev_slots; count = t.count + count; total = t.total + (count * size) },
    t.count )
