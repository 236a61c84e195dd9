(* Regenerates the decode golden file compared by test_mmap.ml's
   "golden decode corpus" test (corpus and row format: golden_decode.ml).

     dune exec test/gen_golden_decode.exe > test/golden_decode.expected

   Regenerate only for a change that is meant to move a decode
   outcome. *)

let () = List.iter (fun (r : Golden_decode.row) -> print_endline r.line) (Golden_decode.rows ())
