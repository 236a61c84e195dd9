type t =
  | Alloc of { obj : int; site : int; ctx : int; size : int; thread : int }
  | Access of { obj : int; offset : int; write : bool; thread : int }
  | Free of { obj : int; thread : int }
  | Realloc of { obj : int; new_size : int; thread : int }
  | Compute of { instrs : int; thread : int }

let pp ppf = function
  | Alloc { obj; site; ctx; size; thread } ->
    Format.fprintf ppf "alloc obj=%d site=%d ctx=%d size=%d t=%d" obj site ctx size thread
  | Access { obj; offset; write; thread } ->
    Format.fprintf ppf "%s obj=%d off=%d t=%d" (if write then "store" else "load") obj offset thread
  | Free { obj; thread } -> Format.fprintf ppf "free obj=%d t=%d" obj thread
  | Realloc { obj; new_size; thread } ->
    Format.fprintf ppf "realloc obj=%d size=%d t=%d" obj new_size thread
  | Compute { instrs; thread } -> Format.fprintf ppf "compute n=%d t=%d" instrs thread

let to_string t = Format.asprintf "%a" pp t

let to_line = function
  | Alloc { obj; site; ctx; size; thread } ->
    Printf.sprintf "A %d %d %d %d %d" obj site ctx size thread
  | Access { obj; offset; write = false; thread } -> Printf.sprintf "L %d %d %d" obj offset thread
  | Access { obj; offset; write = true; thread } -> Printf.sprintf "S %d %d %d" obj offset thread
  | Free { obj; thread } -> Printf.sprintf "F %d %d" obj thread
  | Realloc { obj; new_size; thread } -> Printf.sprintf "R %d %d %d" obj new_size thread
  | Compute { instrs; thread } -> Printf.sprintf "C %d %d" instrs thread

let thread = function
  | Alloc { thread; _ }
  | Access { thread; _ }
  | Free { thread; _ }
  | Realloc { thread; _ }
  | Compute { thread; _ } -> thread

let is_heap_access = function Access _ -> true | _ -> false
