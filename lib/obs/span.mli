(** Hierarchical timing spans with a thread-safe in-memory sink.

    A span measures one region of code on one thread.  Spans opened
    while another span is open on the same thread become its children;
    {!with_} enforces stack discipline (a child always closes before
    its parent, even on exceptions), so the completed records always
    describe a well-formed forest per thread.

    Collection is governed by {!Control}: when off, [with_] runs its
    body directly and records nothing. *)

type completed = {
  name : string;
  cat : string;  (** coarse subsystem: "pipeline", "executor", "harness" *)
  tid : int;  (** OS thread id (dense per-process) *)
  start_ns : int64;
  dur_ns : int64;  (** always >= 0 (monotonic clock) *)
  depth : int;  (** 0 for roots; parent.depth + 1 otherwise *)
  parent : string option;  (** name of the enclosing open span, if any *)
  args : (string * string) list;
      (** user args, always prefixed with [("domain", <id>)] — the
          domain the span ran on *)
}

val with_ : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] times [f ()] under a span called [name].  The span
    is recorded even when [f] raises (the exception is re-raised).
    When collection is off this is exactly [f ()]. *)

val completed : unit -> completed list
(** All closed spans, in completion order (children before parents). *)

val open_count : unit -> int
(** Spans currently open across all threads (for invariant tests). *)

val reset : unit -> unit
(** Drop every recorded span and clear the open-span stacks, so only
    call between (not inside) instrumented regions. *)
