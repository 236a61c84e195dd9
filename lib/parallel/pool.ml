module Metric = Prefix_obs.Metric
module Clock = Prefix_obs.Clock

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array;
}

(* Handles are re-acquired per use, not cached at module load, so the
   counters survive a Metric.reset (the `stats` subcommand resets the
   registry after this module is initialised). *)
let tasks_counter () = Metric.counter "parallel.tasks"
let steals_counter () = Metric.counter "parallel.steals"
let idle_counter () = Metric.counter "parallel.idle_ns"
let depth_gauge () = Metric.gauge "parallel.queue_depth"

(* Call with [t.mutex] held. *)
let note_depth t = Metric.set (depth_gauge ()) (float_of_int (Queue.length t.queue))

let default_jobs () = max 1 (min 64 (Domain.recommended_domain_count ()))

let jobs t = t.jobs

(* Block until a task is available (returned without running it) or the
   pool is shut down (None).  Time parked on the empty queue is
   reported as parallel.idle_ns. *)
let next_task t =
  Mutex.lock t.mutex;
  let idle = ref 0L in
  while Queue.is_empty t.queue && t.live do
    let t0 = Clock.now_ns () in
    Condition.wait t.work t.mutex;
    idle := Int64.add !idle (Int64.sub (Clock.now_ns ()) t0)
  done;
  let task = Queue.take_opt t.queue in
  note_depth t;
  Mutex.unlock t.mutex;
  if !idle <> 0L then Metric.add (idle_counter ()) (Int64.to_int !idle);
  task

let rec worker_loop t =
  match next_task t with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ~jobs =
  let jobs = max 1 jobs in
  (* Register the utilization counters up front so they appear in
     snapshots even while every worker is still parked (a parked worker
     only flushes its idle time when it next takes a task or shuts
     down). *)
  ignore (tasks_counter ());
  ignore (steals_counter ());
  ignore (idle_counter ());
  ignore (depth_gauge ());
  let t =
    { jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [||] }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  if was_live then Array.iter Domain.join t.workers

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  if t.jobs <= 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    if n <= 1 then List.map f xs
    else begin
      let results = Array.make n None in
      let remaining = Atomic.make n in
      let run i =
        let r =
          try Ok (f items.(i))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some r;
        Metric.incr (tasks_counter ());
        (* The last finisher wakes the submitter, which may be parked in
           the settle loop below with no queue work left to steal. *)
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock t.mutex;
          Condition.broadcast t.work;
          Mutex.unlock t.mutex
        end
      in
      Mutex.lock t.mutex;
      if not t.live then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.map: pool is shut down"
      end;
      for i = 0 to n - 1 do
        Queue.add (fun () -> run i) t.queue
      done;
      note_depth t;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* The submitting domain works the queue too instead of idling. *)
      let rec steal () =
        Mutex.lock t.mutex;
        let task = Queue.take_opt t.queue in
        note_depth t;
        Mutex.unlock t.mutex;
        match task with
        | Some task ->
          task ();
          Metric.incr (steals_counter ());
          steal ()
        | None -> ()
      in
      steal ();
      (* Queue is empty; wait for in-flight tasks on the workers. *)
      Mutex.lock t.mutex;
      while Atomic.get remaining > 0 do
        Condition.wait t.work t.mutex
      done;
      Mutex.unlock t.mutex;
      (* Merge in input order; the earliest failure wins. *)
      Array.iter
        (function
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | Some (Ok _) | None -> ())
        results;
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error _) | None -> assert false)
           results)
    end
  end
