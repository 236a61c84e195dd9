type t = {
  name : string;
  sets : int;
  assoc : int;
  shift : int; (* log2 of the line size *)
  set_mask : int;
  (* sets * assoc entries; each set's slice holds its lines in recency
     order, MRU first.  An entry is [line lsl 1 lor dirty]; -1 marks an
     invalid way, and since a miss installs at the front and drops the
     last entry, invalid ways always sort last and fill first. *)
  ways : int array;
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let make ~name ~sets ~assoc ~line_bytes =
  if not (is_pow2 sets) then invalid_arg "Cache: set count must be a power of two";
  { name;
    sets;
    assoc;
    shift = log2 line_bytes;
    set_mask = sets - 1;
    ways = Array.make (sets * assoc) (-1);
    accesses = 0;
    misses = 0;
    writebacks = 0 }

(* Runs before the constructors divide by [assoc] and [line_bytes]. *)
let check_geometry ~assoc ~line_bytes =
  if assoc <= 0 then invalid_arg "Cache: associativity must be positive";
  if not (is_pow2 line_bytes) then invalid_arg "Cache: line size must be a power of two"

let create ?(name = "cache") ~size_bytes ~assoc ~line_bytes () =
  check_geometry ~assoc ~line_bytes;
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  make ~name ~sets:(size_bytes / (assoc * line_bytes)) ~assoc ~line_bytes

let create_entries ?(name = "tlb") ~entries ~assoc ~page_bytes () =
  check_geometry ~assoc ~line_bytes:page_bytes;
  if entries mod assoc <> 0 then invalid_arg "Cache.create_entries: entries not divisible by assoc";
  make ~name ~sets:(entries / assoc) ~assoc ~line_bytes:page_bytes

let name t = t.name
let sets t = t.sets
let assoc t = t.assoc
let line_bytes t = 1 lsl t.shift

(* Entries [first .. last - 1] move down one place, freeing [first].
   A plain loop, not [Array.blit]: on a major-heap array [blit] pays a
   [caml_modify] per element even for ints. *)
let[@inline] shift_down (ways : int array) ~first ~last =
  for j = last downto first + 1 do
    Array.unsafe_set ways j (Array.unsafe_get ways (j - 1))
  done

let probe t ~write addr =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.shift in
  let key = line lsl 1 in
  let ways = t.ways in
  let first = (line land t.set_mask) * t.assoc in
  let last = first + t.assoc - 1 in
  (* [e lor 1 = key lor 1] matches the line whatever its dirty bit, and
     never matches an invalid way (-1). *)
  let probe_key = key lor 1 in
  let i = ref first in
  while !i <= last && Array.unsafe_get ways !i lor 1 <> probe_key do
    incr i
  done;
  if !i <= last then begin
    let e = Array.unsafe_get ways !i in
    shift_down ways ~first ~last:!i;
    Array.unsafe_set ways first (if write then e lor 1 else e);
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Write-back policy: evicting a dirty line costs a memory write. *)
    let victim = Array.unsafe_get ways last in
    if victim >= 0 && victim land 1 = 1 then t.writebacks <- t.writebacks + 1;
    shift_down ways ~first ~last;
    Array.unsafe_set ways first (if write then probe_key else key);
    false
  end

let accesses t = t.accesses
let misses t = t.misses
let writebacks t = t.writebacks
