(** Offset assignment within the preallocated region (§2.1, last
    paragraph): once the placement order is fixed, each object gets a
    precomputed offset based on its profiled size.  The resulting
    mapping is what the instrumented program consults at runtime. *)

type slot = { offset : int; size : int }

type t

val assign : size_of:(int -> int) -> int list -> t
(** [assign ~size_of order] packs the objects of [order] back to back
    (16-byte aligned, matching the allocator granule).  [size_of]
    returns the profiled byte size of an object.  Raises
    [Invalid_argument] on duplicate objects or non-positive sizes. *)

val slots : t -> slot list
(** Slots in placement order. *)

val slot_of_obj : t -> int -> int option
(** Index of the slot assigned to a profiled object id. *)

val region_bytes : t -> int
(** Total bytes of the packed region. *)

val extend : t -> count:int -> size:int -> t * int
(** [extend t ~count ~size] appends [count] uniform slots of [size]
    bytes (a recycling block) and returns the new mapping plus the
    index of the first appended slot. *)
