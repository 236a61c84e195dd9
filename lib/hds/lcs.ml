(* Every DP runs over flat int arrays with monomorphic int compares:
   a row-major (n+1) x (m+1) table for the backtracking variant, two
   rows for the length. *)

let imax (a : int) b = if a >= b then a else b

let table (a : int array) (b : int array) =
  let n = Array.length a and w = Array.length b + 1 in
  let dp = Array.make ((n + 1) * w) 0 in
  for i = 1 to n do
    let ai = a.(i - 1) and row = i * w in
    let up = row - w in
    for j = 1 to w - 1 do
      dp.(row + j) <-
        (if ai = b.(j - 1) then dp.(up + j - 1) + 1 else imax dp.(up + j) dp.(row + j - 1))
    done
  done;
  dp

let lcs_with_positions (a : int array) (b : int array) =
  let dp = table a b in
  let w = Array.length b + 1 in
  let at i j = dp.((i * w) + j) in
  let rec back i j acc =
    if i = 0 || j = 0 then acc
    else if a.(i - 1) = b.(j - 1) && at i j = at (i - 1) (j - 1) + 1 then
      back (i - 1) (j - 1) ((a.(i - 1), i - 1, j - 1) :: acc)
    else if at (i - 1) j >= at i (j - 1) then back (i - 1) j acc
    else back i (j - 1) acc
  in
  back (Array.length a) (Array.length b) []

let lcs a b = Array.of_list (List.map (fun (v, _, _) -> v) (lcs_with_positions a b))

let length (a : int array) (b : int array) =
  (* Two-row DP; keep the shorter sequence as the row.  Column 0 of
     both rows stays 0 and every other cell is written before it is
     read, so the rows swap instead of being copied and cleared. *)
  let a, b = if Array.length a < Array.length b then (b, a) else (a, b) in
  let m = Array.length b in
  let prev = ref (Array.make (m + 1) 0) and cur = ref (Array.make (m + 1) 0) in
  for i = 0 to Array.length a - 1 do
    let ai = a.(i) and p = !prev and c = !cur in
    for j = 1 to m do
      c.(j) <- (if ai = b.(j - 1) then p.(j - 1) + 1 else imax p.(j) c.(j - 1))
    done;
    prev := c;
    cur := p
  done;
  !prev.(m)

let similarity a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then 0.
  else 2. *. float_of_int (length a b) /. float_of_int (n + m)

let split_runs ~max_gap matches =
  let rec go acc cur last = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | (v, i, j) :: rest -> (
      match last with
      | Some (pi, pj) when i - pi > max_gap || j - pj > max_gap ->
        go (List.rev cur :: acc) [ v ] (Some (i, j)) rest
      | _ -> go acc (v :: cur) (Some (i, j)) rest)
  in
  go [] [] None matches |> List.filter (fun r -> r <> [])
