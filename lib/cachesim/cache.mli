(** Set-associative cache with true-LRU replacement.

    One structure serves both the data caches and (with block size = page
    size) the TLBs.  Geometry matches the paper's testbed: 32 KB 8-way L1
    with 64 B lines and a 40 MB 20-way LLC (§3.2). *)

type t

val create : ?name:string -> size_bytes:int -> assoc:int -> line_bytes:int -> unit -> t
(** Raises [Invalid_argument] unless [assoc] is positive, [line_bytes]
    is a power of two, [size_bytes] is divisible by [assoc * line_bytes]
    and the resulting set count is a power of two. *)

val create_entries : ?name:string -> entries:int -> assoc:int -> page_bytes:int -> unit -> t
(** TLB-style constructor: [entries] translation entries covering pages
    of [page_bytes].  Raises [Invalid_argument] unless [assoc] is
    positive, [page_bytes] is a power of two, [entries] is divisible by
    [assoc] and the resulting set count is a power of two. *)

val name : t -> string
val sets : t -> int
val assoc : t -> int
val line_bytes : t -> int

val probe : t -> write:bool -> int -> bool
(** [probe t ~write addr] simulates one reference; [true] = hit.  The
    line is installed (and the LRU way evicted) on a miss.  [write]
    marks the line dirty (write-back policy).

    Each set keeps its lines in recency order, MRU first, in one flat
    int array: a hit at depth [k] compares [k + 1] entries and moves [k]
    down one place; a miss moves the whole set down and installs the
    line at the front.  Once lines are at least 4 bytes every address
    keeps its own line; with 1- or 2-byte lines, addresses must lie
    below 2{^61}. *)

val accesses : t -> int
val misses : t -> int

val writebacks : t -> int
(** Dirty lines evicted so far. *)
