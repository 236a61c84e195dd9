(** Memory-trace events.

    A trace is the sequence of heap-relevant actions a program performs, as
    DynamoRIO would record them for the paper (Figure 8).  Identifiers:

    - [obj]: dynamic object identifier, unique per allocation over the whole
      trace (never reused, even after [Free]).
    - [site]: static malloc-site identifier (the program-counter of the
      allocation call in the original binary).
    - [ctx]: call-stack signature of the allocation, as HALO hashes it.
      Distinct program paths can share a [ctx] — that imprecision is exactly
      the pollution mechanism the paper analyses (§2.2).
    - [thread]: logical thread id; single-threaded workloads use 0. *)

type t =
  | Alloc of { obj : int; site : int; ctx : int; size : int; thread : int }
      (** Object creation via malloc/new at a static site. *)
  | Access of { obj : int; offset : int; write : bool; thread : int }
      (** A load/store of one word within [obj] at byte [offset]. *)
  | Free of { obj : int; thread : int }
      (** Deallocation. *)
  | Realloc of { obj : int; new_size : int; thread : int }
      (** Resize in place or by moving; keeps the same dynamic id. *)
  | Compute of { instrs : int; thread : int }
      (** [instrs] non-memory instructions executed between heap actions;
          drives the instruction-count and cycle models. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val to_line : t -> string
(** The one-line text form [prefix trace] prints:

    {v
    A <obj> <site> <ctx> <size> <thread>     allocation
    L <obj> <offset> <thread>                load
    S <obj> <offset> <thread>                store
    F <obj> <thread>                         free
    R <obj> <new_size> <thread>              realloc
    C <instrs> <thread>                      compute block
    v} *)

val thread : t -> int
(** The thread performing the event. *)

val is_heap_access : t -> bool
(** True only for [Access]. *)
