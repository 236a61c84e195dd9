(* CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

   The framed trace format and the checkpoint container both need a
   cheap integrity check with no external dependency; MD5 (Digest) is
   ~10x slower and overkill for torn-write detection.  The table is
   built once at startup (256 words). *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
         done;
         !c))

let update crc b =
  let t = Lazy.force table in
  (crc lsr 8) lxor t.((crc lxor b) land 0xff)

let sub_bytes data ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length data - pos then
    invalid_arg "Crc32.sub_bytes";
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let b = Char.code (Bytes.unsafe_get data i) in
    crc := (!crc lsr 8) lxor t.((!crc lxor b) land 0xff)
  done;
  !crc lxor 0xFFFFFFFF

(* Same loop over a bigstring region — the trace decoder checks frame
   CRCs without copying the payload out of the mapping. *)
let sub_big (data : Bigio.t) ~pos ~len =
  if pos < 0 || len < 0 || len > Bigio.length data - pos then
    invalid_arg "Crc32.sub_big";
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let b = Char.code (Bigio.unsafe_get data i) in
    crc := (!crc lsr 8) lxor t.((!crc lxor b) land 0xff)
  done;
  !crc lxor 0xFFFFFFFF

let bytes data = sub_bytes data ~pos:0 ~len:(Bytes.length data)

let string s = bytes (Bytes.unsafe_of_string s)

let sub_string s ~pos ~len = sub_bytes (Bytes.unsafe_of_string s) ~pos ~len
