(** Per-object liveness intervals, extracted in one pass over the trace.

    An interval spans an object's first allocation to the last event
    that touches it (access, realloc, or free) — the precise-liveness
    quantity of Kanvar et al. (*Which Part of the Heap is Useful?*).
    Intervals drive two layout consumers: greedy interval-graph
    coloring of recycling slots ({!slot_assignment}, replacing the
    modulo-N map of Figure 7 when the plan opts in) and the
    block-structured bump-pointer policy's sizing
    ({!Prefix_blockpolicy}).

    Reused object ids (corrupted / lenient traces) produce one interval
    {e per incarnation}: a reuse closes the previous incarnation at the
    last event that touched it. *)

type interval = {
  iv_obj : int;  (** dynamic object id *)
  iv_site : int;  (** static malloc site *)
  iv_ctx : int;  (** call-stack signature of the allocation *)
  iv_size : int;  (** max byte size over the lifetime (alloc + reallocs) *)
  iv_incarnation : int;  (** 1-based incarnation of this id *)
  iv_start : int;  (** global trace index of the Alloc *)
  iv_stop : int;
      (** global index of the last access/realloc/free; equals
          [iv_start] for an object never touched again *)
  iv_freed : bool;  (** whether a Free ended the interval *)
}

type t

val of_trace : Prefix_trace.Trace.t -> t

val intervals : t -> interval array
(** All intervals sorted by [iv_start]; treat as read-only. *)

val slot_assignment :
  t -> sites:int list -> ?required_ctx:int -> n_slots:int -> unit -> (int * int) list
(** [(instance_id, relative_slot)] pairs for a recycling counter over
    [sites]: instances are numbered 1.. in trace order over exactly the
    allocations that advance the runtime counter (filtered by site and,
    when given, the hybrid [required_ctx] gate), and slots come from
    greedy interval coloring instead of [(id-1) mod n]; greedy by start
    order is optimal on interval graphs, so it needs exactly as many
    colors as the maximum number of simultaneously-live instances.
    Never-freed objects are pinned open (their runtime slot is never
    released), so no later instance shares their color.  Colors are
    reduced [mod n_slots] as a defensive clamp; coloring needs at most
    the max overlap, which the recycling sizing ({!Recycle.analyze})
    already bounds by [n_slots].
    Raises [Invalid_argument] when [n_slots <= 0]. *)

val peak_live_bytes : t -> sites:int list option -> int
(** Peak concurrently-live bytes (16-byte-aligned sizes) over the given
    sites ([None] = all), pinning never-freed objects open — the
    footprint a block allocator must provision for. *)
