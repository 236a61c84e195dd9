(* Seeded copies of the workload models.

   The harness always asks a model for its profile trace at
   [Harness.seed] and its evaluation trace at [Harness.seed + 1].  A
   seeded copy answers those requests with the traces of seed [s] and
   [s + 1] instead, so the program's real entry points run on inputs
   chosen by the benchmark.  At [s = Harness.seed] the copy emits
   exactly the original events. *)

module Workload = Prefix_workloads.Workload
module Builder = Prefix_workloads.Builder
module Event = Prefix_trace.Event
module Rng = Prefix_util.Rng
module Harness = Prefix_experiments.Harness

(* Evaluation-trace generator passes started in this process:
   materialized generations and streamed passes alike. *)
let eval_passes = Atomic.make 0

let remap ~seed k =
  if k = Harness.seed then seed
  else if k = Harness.seed + 1 then seed + 1
  else invalid_arg (Printf.sprintf "Seeded: unexpected generator seed %d" k)

(* [fill] receives a fresh builder, seeded by the caller; its generator
   state is the only trace of that seed, so identify it by the first
   draw it would make. *)
let builder_seed b =
  let first = Rng.bits64 (Rng.copy (Builder.rng b)) in
  let draws k = Rng.bits64 (Rng.create k) = first in
  if draws Harness.seed then Harness.seed
  else if draws (Harness.seed + 1) then Harness.seed + 1
  else failwith "Seeded: fill called with a builder of an unknown seed"

(* Re-emit one event of the seeded generator through the caller's
   builder, which owns the stream sink.  Both builders number objects
   from 1 in allocation order, so object ids agree. *)
let forward outer (e : Event.t) =
  Builder.set_thread outer (Event.thread e);
  match e with
  | Alloc { obj; site; ctx; size; _ } ->
    if Builder.alloc outer ~site ~ctx size <> obj then
      failwith "Seeded: object ids diverged"
  | Access { obj; offset; write; _ } -> Builder.access outer ~write obj offset
  | Free { obj; _ } -> Builder.free outer obj
  | Realloc { obj; new_size; _ } -> Builder.realloc outer obj new_size
  | Compute { instrs; _ } -> Builder.compute outer instrs

let make ~seed (wl : Workload.t) : Workload.t =
  let generate ?threads ~scale ~seed:k () =
    if k <> Harness.seed then Atomic.incr eval_passes;
    wl.generate ?threads ~scale ~seed:(remap ~seed k) ()
  in
  let fill ?threads ~scale b =
    let k = builder_seed b in
    if k <> Harness.seed then Atomic.incr eval_passes;
    let inner = Builder.create ~seed:(remap ~seed k) ~sink:(forward b) () in
    wl.fill ?threads ~scale inner
  in
  { wl with generate; fill }
