module Metric = Prefix_obs.Metric

(* Re-acquired per use, not cached at module load, so the counter
   survives a Metric.reset (the `stats` subcommand resets the registry
   after this module is initialised). *)
let tasks_counter () = Metric.counter "parallel.tasks"

let default_jobs () = max 1 (min 64 (Domain.recommended_domain_count ()))

let map ~jobs f xs =
  if jobs < 2 || List.compare_length_with xs 2 < 0 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Every domain, the caller included, claims the next unclaimed
       index until none is left; each slot is written by one domain. *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some (try Ok (f items.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()));
        Metric.incr (tasks_counter ());
        work ()
      end
    in
    let domains = List.init (min jobs n - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join domains;
    (* Merge in input order, so the earliest failure is the one raised. *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end
