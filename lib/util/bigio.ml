(* Memory-mapped (or read-into) bigstring file access.

   The trace decoder wants the whole container addressable as one flat
   byte region so frame walks and payload decodes copy no bytes.
   [load] maps the file with [Unix.map_file] when it can; inputs that
   cannot be mapped (pipes, some filesystems, or an explicit
   [~mmap:false]) fall back to reading the file chunk-wise into a
   freshly allocated bigstring, which preserves the same interface at
   the cost of one copy. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let empty : t = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

let length (b : t) = Bigarray.Array1.dim b

let get (b : t) i : char = Bigarray.Array1.get b i

external unsafe_get : t -> int -> char = "%caml_ba_unsafe_ref_1"

let read_into_big fd size : t =
  let big = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  let chunk = Bytes.create (min size 65536) in
  let pos = ref 0 in
  let eof = ref false in
  while !pos < size && not !eof do
    let n = Unix.read fd chunk 0 (min (Bytes.length chunk) (size - !pos)) in
    if n = 0 then eof := true
    else begin
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set big (!pos + i) (Bytes.unsafe_get chunk i)
      done;
      pos := !pos + n
    end
  done;
  if !pos < size then failwith "Bigio.load: short read";
  big

let load ?(mmap = true) path : t =
  let fd =
    (* [Sys_error], matching what [open_in_bin] raises. *)
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size = 0 then empty
      else if mmap then
        match
          Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]
        with
        | genarray -> Bigarray.array1_of_genarray genarray
        | exception _ -> read_into_big fd size
      else read_into_big fd size)

let of_bytes data : t =
  let n = Bytes.length data in
  let big = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set big i (Bytes.unsafe_get data i)
  done;
  big

let sub_string (b : t) ~pos ~len =
  if pos < 0 || len < 0 || len > length b - pos then
    invalid_arg "Bigio.sub_string";
  String.init len (fun i -> Bigarray.Array1.unsafe_get b (pos + i))

let to_bytes (b : t) =
  let n = length b in
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set out i (Bigarray.Array1.unsafe_get b i)
  done;
  out
