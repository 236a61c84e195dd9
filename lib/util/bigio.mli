(** Memory-mapped file access as a flat bigstring.

    Backs the trace decoder: the whole container file is addressable as
    one byte region, so frame walks, CRC checks and payload decodes
    read straight from the mapping without intermediate copies. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val empty : t

val load : ?mmap:bool -> string -> t
(** [load path] maps the file read-only with [Unix.map_file].  When the
    file cannot be mapped (pipes, exotic filesystems) or [~mmap:false]
    is given, the file is instead read chunk-wise into a freshly
    allocated bigstring — same interface, one extra copy.  Zero-length
    files yield {!empty} (mapping an empty file is an error on Linux).
    Raises [Sys_error] if the file cannot be opened (same exception as
    [open_in]) and [Failure] on a short read in fallback mode. *)

val of_bytes : bytes -> t
(** A fresh bigstring holding a copy of the bytes — how in-memory
    containers reach the decoder. *)

val length : t -> int

val get : t -> int -> char
(** Bounds-checked. *)

external unsafe_get : t -> int -> char = "%caml_ba_unsafe_ref_1"
(** Unchecked read, declared as the compiler primitive so that every
    call (the decoder's per-byte read) compiles inline, across modules
    built [-opaque]. *)

val sub_string : t -> pos:int -> len:int -> string
(** Raises [Invalid_argument] when the slice is out of bounds. *)

val to_bytes : t -> bytes
(** Copy the whole region into fresh [bytes] (tests compare loads with
    it). *)
