(* Tests for Prefix_trace: Event, Trace, Packed, Trace_stats. *)

open Prefix_trace

let al thread obj site size : Event.t = Alloc { obj; site; ctx = site; size; thread }
let acc ?(write = false) ?(thread = 0) obj offset : Event.t =
  Access { obj; offset; write; thread }
let fr ?(thread = 0) obj : Event.t = Free { obj; thread }
let re ?(thread = 0) obj new_size : Event.t = Realloc { obj; new_size; thread }
let cp ?(thread = 0) instrs : Event.t = Compute { instrs; thread }

let valid_trace () =
  Trace.of_list
    [ al 0 1 10 64; acc 1 0; acc 1 48; cp 100; al 0 2 11 32; acc 2 16; re 2 64; acc 2 48;
      fr 1; fr 2 ]

(* ---- Trace buffer ---- *)

let test_add_get () =
  let t = Trace.create ~capacity:2 () in
  for i = 1 to 100 do
    Trace.add t (cp i)
  done;
  Alcotest.(check int) "length" 100 (Trace.length t);
  (match Trace.get t 41 with
  | Compute { instrs; _ } -> Alcotest.(check int) "get" 42 instrs
  | _ -> Alcotest.fail "wrong event");
  Alcotest.check_raises "oob" (Invalid_argument "Trace.get: index out of bounds") (fun () ->
      ignore (Trace.get t 100))

let test_roundtrip_list () =
  let t = valid_trace () in
  Alcotest.(check int) "of_list/to_list" (Trace.length t)
    (List.length (Trace.to_list t))

let test_append_filter () =
  let t = valid_trace () in
  let doubled = Trace.append t t in
  Alcotest.(check int) "append" (2 * Trace.length t) (Trace.length doubled);
  let only_access = Trace.filter Event.is_heap_access t in
  Alcotest.(check int) "filter" (Trace.num_accesses t) (Trace.length only_access)

let test_counts () =
  let t = valid_trace () in
  Alcotest.(check int) "objects" 2 (Trace.num_objects t);
  Alcotest.(check int) "accesses" 4 (Trace.num_accesses t);
  Alcotest.(check int) "instructions" 104 (Trace.total_instructions t)

(* ---- Validation ---- *)

let violations es = List.length (Trace.validate (Trace.of_list es))

let test_validate_ok () =
  Alcotest.(check int) "no violations" 0 (violations (Trace.to_list (valid_trace ())))

let test_validate_use_before_alloc () =
  Alcotest.(check int) "catches" 1 (violations [ acc 5 0 ])

let test_validate_double_alloc () =
  Alcotest.(check int) "catches" 1 (violations [ al 0 1 1 32; al 0 1 2 32 ])

let test_validate_double_free () =
  Alcotest.(check int) "catches" 1 (violations [ al 0 1 1 32; fr 1; fr 1 ])

let test_validate_use_after_free () =
  Alcotest.(check int) "catches" 1 (violations [ al 0 1 1 32; fr 1; acc 1 0 ])

let test_validate_oob_offset () =
  Alcotest.(check int) "catches" 1 (violations [ al 0 1 1 32; acc 1 32 ]);
  Alcotest.(check int) "boundary ok" 0 (violations [ al 0 1 1 32; acc 1 31 ])

let test_validate_realloc_bounds () =
  (* growing legitimizes larger offsets; shrinking invalidates them *)
  Alcotest.(check int) "grow ok" 0 (violations [ al 0 1 1 32; re 1 64; acc 1 48 ]);
  Alcotest.(check int) "shrink oob" 1 (violations [ al 0 1 1 64; re 1 32; acc 1 48 ])

let test_validate_free_before_alloc () =
  (* A Free of a never-allocated id is its own violation kind, not an
     access-before-alloc. *)
  match Trace.validate (Trace.of_list [ fr 5 ]) with
  | [ Trace.Free_before_alloc { obj = 5; index = 0 } ] -> ()
  | [ v ] -> Alcotest.failf "wrong kind: %a" Trace.pp_violation v
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_validate_realloc_before_alloc () =
  match Trace.validate (Trace.of_list [ al 0 1 1 32; re 9 64; fr 1 ]) with
  | [ Trace.Realloc_before_alloc { obj = 9; index = 1 } ] -> ()
  | [ v ] -> Alcotest.failf "wrong kind: %a" Trace.pp_violation v
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* ---- Event text lines ---- *)

(* [prefix trace] prints one [Event.to_line] per event. *)
let test_event_lines () =
  Alcotest.(check (list string)) "one line per constructor"
    [ "A 1 2 3 32 0"; "L 1 8 0"; "S 1 16 2"; "R 1 64 0"; "F 1 0"; "C 7 1" ]
    (List.map Event.to_line
       [ Event.Alloc { obj = 1; site = 2; ctx = 3; size = 32; thread = 0 };
         Event.Access { obj = 1; offset = 8; write = false; thread = 0 };
         Event.Access { obj = 1; offset = 16; write = true; thread = 2 };
         Event.Realloc { obj = 1; new_size = 64; thread = 0 };
         Event.Free { obj = 1; thread = 0 };
         Event.Compute { instrs = 7; thread = 1 } ])

(* ---- Packed (struct-of-arrays) ---- *)

let test_packed_roundtrip_basic () =
  let t = valid_trace () in
  let p = Packed.of_trace t in
  Alcotest.(check int) "length" (Trace.length t) (Packed.length p);
  Alcotest.(check bool) "events preserved" true
    (Trace.to_list (Packed.to_trace p) = Trace.to_list t);
  Alcotest.(check int) "instructions" (Trace.total_instructions t)
    (Packed.total_instructions p);
  Alcotest.(check int) "accesses" (Trace.num_accesses t) (Packed.num_accesses p)

let test_packed_get () =
  let t = valid_trace () in
  let p = Packed.of_trace t in
  for i = 0 to Trace.length t - 1 do
    if Packed.get p i <> Trace.get t i then
      Alcotest.failf "event %d differs: %s vs %s" i
        (Event.to_string (Packed.get p i))
        (Event.to_string (Trace.get t i))
  done

let test_packed_iteri_order () =
  let t = valid_trace () in
  let p = Packed.of_trace t in
  (* Selective callbacks must see exactly the events of their kind, at
     the original indices. *)
  let seen = ref [] in
  Packed.iteri
    ~alloc:(fun i ~obj ~site:_ ~ctx:_ ~size:_ ~thread:_ -> seen := (i, `A obj) :: !seen)
    ~free:(fun i ~obj ~thread:_ -> seen := (i, `F obj) :: !seen)
    p;
  let expected =
    List.mapi
      (fun i (e : Event.t) ->
        match e with
        | Alloc { obj; _ } -> Some (i, `A obj)
        | Free { obj; _ } -> Some (i, `F obj)
        | _ -> None)
      (Trace.to_list t)
    |> List.filter_map Fun.id
  in
  Alcotest.(check bool) "allocs and frees in order" true (List.rev !seen = expected)

(* Arbitrary events of every kind with adversarial field values:
   negative sizes/offsets (the injector produces those), id reuse,
   write flags, multiple threads. *)
let any_event_gen =
  QCheck.Gen.(
    let obj = int_range 0 40 in
    let thread = int_range 0 3 in
    oneof
      [ (fun st ->
          let o = obj st and s = int_range (-8) 9 st and sz = int_range (-16) 256 st
          and th = thread st in
          (Event.Alloc { obj = o; site = s; ctx = s * 31; size = sz; thread = th } : Event.t));
        (fun st ->
          let o = obj st and off = int_range (-4) 512 st and w = bool st
          and th = thread st in
          Event.Access { obj = o; offset = off; write = w; thread = th });
        (fun st ->
          let o = obj st and th = thread st in
          Event.Free { obj = o; thread = th });
        (fun st ->
          let o = obj st and sz = int_range (-16) 256 st and th = thread st in
          Event.Realloc { obj = o; new_size = sz; thread = th });
        (fun st ->
          let n = int_range 0 1000 st and th = thread st in
          Event.Compute { instrs = n; thread = th }) ])

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"packed roundtrips arbitrary events" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) any_event_gen))
    (fun es ->
      let t = Trace.of_list es in
      Trace.to_list (Packed.to_trace (Packed.of_trace t)) = es)

(* ---- of_list / append / filter edges ---- *)

let test_of_list_empty () =
  let t = Trace.of_list [] in
  Alcotest.(check int) "empty" 0 (Trace.length t);
  (* The empty trace must still grow. *)
  Trace.add t (cp 1);
  Alcotest.(check int) "grows" 1 (Trace.length t)

let test_append_empty () =
  let t = valid_trace () in
  let e = Trace.of_list [] in
  Alcotest.(check bool) "left identity" true
    (Trace.to_list (Trace.append e t) = Trace.to_list t);
  Alcotest.(check bool) "right identity" true
    (Trace.to_list (Trace.append t e) = Trace.to_list t);
  let ee = Trace.append e e in
  Alcotest.(check int) "empty++empty" 0 (Trace.length ee);
  Trace.add ee (cp 1);
  Alcotest.(check int) "result grows" 1 (Trace.length ee)

let test_filter_all_out () =
  let t = valid_trace () in
  let none = Trace.filter (fun _ -> false) t in
  Alcotest.(check int) "empty result" 0 (Trace.length none);
  Trace.add none (cp 1);
  Alcotest.(check int) "result grows" 1 (Trace.length none);
  let all = Trace.filter (fun _ -> true) t in
  Alcotest.(check bool) "identity" true (Trace.to_list all = Trace.to_list t)

(* ---- Trace_stats ---- *)

let stats_trace () =
  Trace.of_list
    [ al 0 1 10 64; al 0 2 10 32; al 0 3 11 32;
      acc 1 0; acc 1 16; acc 1 32; acc 1 48; acc 2 0; acc 3 0; acc 3 16; acc 3 0;
      acc 3 16; fr 2; al 0 4 10 128; acc 4 0; fr 1; fr 3; fr 4 ]

let test_stats_objects () =
  let s = Trace_stats.analyze (stats_trace ()) in
  let o1 = Trace_stats.obj_info s 1 in
  Alcotest.(check int) "accesses" 4 o1.accesses;
  Alcotest.(check int) "site" 10 o1.site;
  Alcotest.(check int) "instance" 1 o1.instance;
  let o4 = Trace_stats.obj_info s 4 in
  Alcotest.(check int) "instance of third site-10 alloc" 3 o4.instance;
  Alcotest.(check bool) "freed" true (o1.free_index <> None)

let test_stats_sites () =
  let s = Trace_stats.analyze (stats_trace ()) in
  let site10 = Trace_stats.site_info s 10 in
  Alcotest.(check int) "alloc count" 3 site10.alloc_count;
  Alcotest.(check (list int)) "site objects in order" [ 1; 2; 4 ] site10.site_objects;
  Alcotest.(check int) "site accesses" 6 site10.site_accesses

let test_stats_hot () =
  let s = Trace_stats.analyze (stats_trace ()) in
  let hot = Trace_stats.hot_objects ~coverage:0.9 ~min_accesses:4 s in
  let ids = List.map (fun (o : Trace_stats.obj_info) -> o.obj) hot in
  Alcotest.(check (list int)) "objects 1 and 3 are hot (4 accesses each)" [ 1; 3 ] ids

let test_stats_hot_min_accesses () =
  let s = Trace_stats.analyze (stats_trace ()) in
  let hot = Trace_stats.hot_objects ~coverage:1.0 ~min_accesses:1 s in
  Alcotest.(check int) "full coverage takes all accessed objects" 4 (List.length hot)

let test_stats_max_live () =
  let s = Trace_stats.analyze (stats_trace ()) in
  Alcotest.(check int) "max simultaneous" 3 (Trace_stats.max_live_objects s)

let test_stats_share () =
  let s = Trace_stats.analyze (stats_trace ()) in
  Alcotest.(check (Alcotest.float 1e-9)) "share of obj1" (4. /. 10.)
    (Trace_stats.heap_access_share s [ 1 ]);
  Alcotest.(check (Alcotest.float 1e-9)) "duplicates not double-counted" (4. /. 10.)
    (Trace_stats.heap_access_share s [ 1; 1 ])

let test_stats_lifetimes () =
  let s = Trace_stats.analyze (stats_trace ()) in
  Alcotest.(check bool) "1 and 2 overlap" true (Trace_stats.lifetimes_overlap s 1 2);
  Alcotest.(check bool) "2 and 4 do not" false (Trace_stats.lifetimes_overlap s 2 4)

let test_stats_max_live_site () =
  let s = Trace_stats.analyze (stats_trace ()) in
  Alcotest.(check int) "site 10 peak" 2 (Trace_stats.max_live_objects_of_site s 10)

(* ---- regressions: the statistics fold on malformed traces ---- *)

let test_stats_duplicate_free () =
  (* A duplicate Free (tolerated by lenient replay) used to decrement
     the live counter twice, driving it negative and making max_live
     report 1 here instead of 2. *)
  let t =
    Trace.of_list
      [ al 0 1 10 64; fr 1; fr 1; al 0 2 10 64; al 0 3 10 64; fr 2; fr 3 ]
  in
  let s = Trace_stats.analyze t in
  Alcotest.(check int) "max live" 2 (Trace_stats.max_live_objects s);
  Alcotest.(check int) "first free wins"
    1
    (Option.get (Trace_stats.obj_info s 1).Trace_stats.free_index)

let test_stats_reused_id () =
  (* An id allocated twice (corrupted traces do this) used to keep only
     the second incarnation in [objects] — double-counting it against
     the first one's accesses — and to count the id as two live
     objects. *)
  let t =
    Trace.of_list [ al 0 1 10 64; acc 1 0; al 0 1 11 32; acc 1 8; acc 1 16; fr 1 ]
  in
  let s = Trace_stats.analyze t in
  Alcotest.(check int) "reused ids" 1 (Trace_stats.reused_ids s);
  (match Trace_stats.objects s with
  | [ a; b ] ->
    Alcotest.(check int) "first incarnation site" 10 a.Trace_stats.site;
    Alcotest.(check int) "first incarnation accesses" 1 a.Trace_stats.accesses;
    Alcotest.(check int) "second incarnation site" 11 b.Trace_stats.site;
    Alcotest.(check int) "second incarnation accesses" 2 b.Trace_stats.accesses
  | objs -> Alcotest.fail (Printf.sprintf "expected 2 incarnations, got %d" (List.length objs)));
  Alcotest.(check int) "lookup sees latest incarnation" 11
    (Trace_stats.obj_info s 1).Trace_stats.site;
  Alcotest.(check int) "an id is at most one live object" 1
    (Trace_stats.max_live_objects s);
  Alcotest.(check int) "well-formed traces report none" 0
    (Trace_stats.reused_ids (Trace_stats.analyze (valid_trace ())))

let suite =
  [ ( "trace",
      [ Alcotest.test_case "add/get" `Quick test_add_get;
        Alcotest.test_case "of_list/to_list" `Quick test_roundtrip_list;
        Alcotest.test_case "append/filter" `Quick test_append_filter;
        Alcotest.test_case "counts" `Quick test_counts;
        Alcotest.test_case "validate ok" `Quick test_validate_ok;
        Alcotest.test_case "use before alloc" `Quick test_validate_use_before_alloc;
        Alcotest.test_case "double alloc" `Quick test_validate_double_alloc;
        Alcotest.test_case "double free" `Quick test_validate_double_free;
        Alcotest.test_case "use after free" `Quick test_validate_use_after_free;
        Alcotest.test_case "offset bounds" `Quick test_validate_oob_offset;
        Alcotest.test_case "realloc bounds" `Quick test_validate_realloc_bounds;
        Alcotest.test_case "free before alloc" `Quick test_validate_free_before_alloc;
        Alcotest.test_case "realloc before alloc" `Quick test_validate_realloc_before_alloc;
        Alcotest.test_case "of_list empty" `Quick test_of_list_empty;
        Alcotest.test_case "append empty" `Quick test_append_empty;
        Alcotest.test_case "filter edges" `Quick test_filter_all_out;
        Alcotest.test_case "event text lines" `Quick test_event_lines ] );
    ( "packed",
      [ Alcotest.test_case "roundtrip" `Quick test_packed_roundtrip_basic;
        Alcotest.test_case "get" `Quick test_packed_get;
        Alcotest.test_case "iteri order" `Quick test_packed_iteri_order;
        QCheck_alcotest.to_alcotest prop_packed_roundtrip ] );
    ( "trace-stats",
      [ Alcotest.test_case "per-object info" `Quick test_stats_objects;
        Alcotest.test_case "per-site info" `Quick test_stats_sites;
        Alcotest.test_case "hot selection" `Quick test_stats_hot;
        Alcotest.test_case "min accesses filter" `Quick test_stats_hot_min_accesses;
        Alcotest.test_case "max live" `Quick test_stats_max_live;
        Alcotest.test_case "access share" `Quick test_stats_share;
        Alcotest.test_case "lifetimes overlap" `Quick test_stats_lifetimes;
        Alcotest.test_case "max live per site" `Quick test_stats_max_live_site;
        Alcotest.test_case "duplicate free" `Quick test_stats_duplicate_free;
        Alcotest.test_case "reused object id" `Quick test_stats_reused_id ] ) ]
