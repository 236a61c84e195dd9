type completed = {
  name : string;
  cat : string;
  tid : int;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  parent : string option;
  args : (string * string) list;
}

(* The sink.  One mutex guards everything: spans close at most a few
   thousand times per run, so contention is irrelevant; what matters is
   that records from concurrent replay threads interleave safely. *)
let mutex = Mutex.create ()
let spans_rev : completed list ref = ref []

(* Per-thread stack of open (name) frames, for depth/parent. *)
let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let stack_of tid =
  match Hashtbl.find_opt stacks tid with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace stacks tid s;
    s

let with_ ?(cat = "") ?(args = []) name f =
  if not (Control.is_on ()) then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    (* Every span carries the domain it ran on, so pooled runs can be
       picked apart per domain in the Chrome trace. *)
    let args = ("domain", string_of_int (Domain.self () :> int)) :: args in
    let depth, parent =
      locked (fun () ->
          let st = stack_of tid in
          let depth = List.length !st in
          let parent = match !st with [] -> None | p :: _ -> Some p in
          st := name :: !st;
          (depth, parent))
    in
    let start = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Clock.now_ns () in
        locked (fun () ->
            let st = stack_of tid in
            (match !st with _ :: rest -> st := rest | [] -> ());
            spans_rev :=
              { name;
                cat;
                tid;
                start_ns = start;
                dur_ns = Int64.sub stop start;
                depth;
                parent;
                args }
              :: !spans_rev))
      f
  end

let completed () = locked (fun () -> List.rev !spans_rev)

let open_count () =
  locked (fun () -> Hashtbl.fold (fun _ st acc -> acc + List.length !st) stacks 0)

let reset () =
  locked (fun () ->
      spans_rev := [];
      Hashtbl.reset stacks)
