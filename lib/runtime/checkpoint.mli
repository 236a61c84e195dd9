(** Self-validating checkpoint containers and resource guardrails.

    A checkpoint file carries a plain header (kind + metadata key/values
    + event index) and an opaque payload, each protected by a CRC-32.
    The header is encoded field by field, with every length checked
    against the header's bytes on decode, so no header byte ever
    reaches [Marshal].
    Saves are atomic (temp + fsync + rename) and rotate the previous
    file to [path ^ ".prev"]; {!load} falls back to the rotated copy
    when the current file is torn or corrupt, so a crash mid-write loses
    at most one checkpoint interval. *)

type header = {
  kind : string;  (** e.g. ["session"], ["stats"], ["outcome"] *)
  meta : (string * string) list;
      (** identity of the run that wrote the checkpoint (trace digest,
          config digest, bench name, ...) — validated on resume *)
  event_index : int;  (** events replayed when the snapshot was taken *)
}

val save : path:string -> header -> payload:string -> unit
(** Atomic write with bounded retry; an existing file at [path] is
    rotated to [path ^ ".prev"] first.  After a successful write the
    after-save hook runs (see {!set_after_save}). *)

val load : path:string -> (header * string * [ `Current | `Previous ], string) result
(** Read and CRC-validate [path]; on any failure, fall back to
    [path ^ ".prev"].  The third component says which copy was used. *)

val load_file : string -> (header * string, string) result
(** Read and validate exactly one file (no fallback). *)

val validate : path:string -> (header, string) result
(** Header-only validation of one file: magic, version, header CRC and
    fields, payload length and payload CRC.  Used by [resume --check]. *)

val check_meta :
  header -> kind:string -> meta:(string * string) list -> (unit, string) result
(** Refuse a checkpoint whose kind differs or whose metadata lacks (or
    contradicts) any of the expected key/value pairs. *)

val encode : header -> payload:string -> string

val decode : string -> (header * string, string) result
(** Never raises: any input it cannot accept is an [Error]. *)

val prev_path : string -> string

(** {1 After-save hook}

    The crash campaign registers a hook that SIGKILLs the process after
    its k-th checkpoint write, which is how kill points land exactly on
    save boundaries. *)

val saves : unit -> int
(** Number of successful {!save}s in this process. *)

val set_after_save : (int -> unit) -> unit
(** [f n] runs after the [n]-th successful save (1-based). *)

val reset_saves : unit -> unit

val default_throttle_ms : float
(** Default minimum wall-clock spacing between periodic checkpoint
    saves (100 ms).  A save costs a few milliseconds end to end, so
    throttling bounds steady-state checkpointing overhead at roughly
    [save_cost / throttle] — a few percent — independent of segment
    size and replay speed. *)

(** {1 Resource guardrails}

    Checked at segment boundaries by the durable runner; a breach
    flushes a final checkpoint and exits with code 3. *)

type guardrails = {
  deadline_s : float option;  (** wall-clock budget for the run *)
  max_rss_mb : int option;  (** resident-set ceiling, megabytes *)
}

val no_guardrails : guardrails

exception Breach of string

type monitor

val start : guardrails -> monitor
(** Capture the start time; {!check} measures elapsed time from here. *)

val check : monitor -> unit
(** Raise {!Breach} when a limit is exceeded.  RSS comes from
    [/proc/self/status]; on systems without it the RSS guardrail is
    inert. *)

val rss_mb : unit -> int option
