(* Regenerates the experiment golden file compared by
   test_experiments.ml's "experiments golden" test: the text of
   `prefix experiment stability fig9 fig10 ablations`, the four
   experiments that replay policies beyond the memoized benchmark runs.

     dune exec test/gen_experiments.exe > test/golden_experiments.expected

   Regenerate only for a change that is meant to move one of them. *)

let () =
  List.iter
    (fun id -> print_string ((Option.get (Prefix_experiments.Report.find id)).run ()))
    [ "stability"; "fig9"; "fig10"; "ablations" ]
