(* Replay helpers shared by the tests.  Every replay is an
   [Executor.run_stream_many] fan-out over a stream; these build the
   one-segment stream of a materialized trace and unwrap a fan-out of
   one policy. *)

module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream

(* The packed trace as one segment: the fan-out replays straight off
   its arrays. *)
let whole p = Stream.of_packed ~segment_events:(max 1 (Packed.length p)) p

(* The outcome of a fan-out of one. *)
let one ?config ?mode ?heatmap_objs ?attribute ~policy stream =
  match
    Executor.run_stream_many ?config ?mode ?heatmap_objs ?attribute ~policies:[ policy ]
      stream
  with
  | [ o ] -> o
  | _ -> assert false

(* [policy] over a boxed trace, packed and replayed as one segment. *)
let trace ?mode ?heatmap_objs ?attribute ~policy t =
  one ?mode ?heatmap_objs ?attribute ~policy (whole (Packed.of_trace t))

let baseline heap = Policy.baseline Executor.default_config.costs heap
