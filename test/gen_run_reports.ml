(* Regenerates the run-report golden file compared by test_headline.ml's
   "run reports golden" test: the report `prefix run <m>` prints for
   every benchmark (seed 7, Long scale), each under a "== <m> ==" line,
   in registry order.

     dune exec test/gen_run_reports.exe > test/golden_run_reports.expected

   Regenerate only for a change that is meant to move a report. *)

let () =
  List.iter
    (fun name ->
      Printf.printf "== %s ==\n%s" name
        (Prefix_experiments.Durable.render (Prefix_experiments.Harness.find name)))
    Prefix_workloads.Registry.names
