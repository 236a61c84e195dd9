(* Tests for Prefix_util: Rng, Stats, Tablefmt, Fsio, Crc32. *)

open Prefix_util

let check = Alcotest.check
let ci = Alcotest.int
let cf = Alcotest.(float 1e-9)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.int a 1000 and xb = Rng.int b 1000 in
  ignore xa;
  ignore xb;
  (* After split, advancing one stream must not affect the other. *)
  let b' = Rng.copy b in
  ignore (Rng.int a 1000);
  check ci "split stream unaffected" (Rng.int b' 5) (Rng.int b 5)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_geometric () =
  let r = Rng.create 5 in
  check ci "p=1 is always 0" 0 (Rng.geometric r 1.0);
  let total = ref 0 in
  for _ = 1 to 2000 do
    total := !total + Rng.geometric r 0.5
  done;
  (* mean of Geom(0.5) failures = 1 *)
  let mean = float_of_int !total /. 2000. in
  Alcotest.(check bool) "mean near 1" true (mean > 0.8 && mean < 1.2)

let test_rng_zipf_bounds () =
  let r = Rng.create 6 in
  for _ = 1 to 2000 do
    let v = Rng.zipf r ~n:50 ~s:1.1 in
    Alcotest.(check bool) "rank in range" true (v >= 0 && v < 50)
  done

let test_rng_zipf_skew () =
  let r = Rng.create 8 in
  let counts = Array.make 20 0 in
  for _ = 1 to 5000 do
    let v = Rng.zipf r ~n:20 ~s:1.2 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true
    (counts.(0) > counts.(5) && counts.(0) > counts.(19))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      let r = Rng.create seed in
      Rng.shuffle r arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

(* ---- Stats ---- *)

let test_mean () =
  check cf "empty" 0. (Stats.mean []);
  check cf "basic" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_geomean () =
  check cf "pair" 2. (Stats.geomean [ 1.; 4. ]);
  check cf "empty" 0. (Stats.geomean [])

let test_geomean_domain () =
  let msg = "Stats.geomean: samples must be positive" in
  Alcotest.check_raises "zero sample" (Invalid_argument msg) (fun () ->
      ignore (Stats.geomean [ 1.; 0.; 4. ]));
  Alcotest.check_raises "negative sample" (Invalid_argument msg) (fun () ->
      ignore (Stats.geomean [ 2.; -3. ]));
  Alcotest.check_raises "nan sample" (Invalid_argument msg) (fun () ->
      ignore (Stats.geomean [ Float.nan ]))

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check cf "p0" 1. (Stats.percentile 0. xs);
  check cf "p50" 3. (Stats.percentile 50. xs);
  check cf "p100" 5. (Stats.percentile 100. xs);
  check cf "p25 interpolates" 2. (Stats.percentile 25. xs)

let test_percentile_domain () =
  let msg = "Stats.percentile: p must be in [0, 100]" in
  let xs = [ 1.; 2.; 3. ] in
  (* p < 0 used to index the sorted array at -1; p > 100 interpolated
     past the end. *)
  Alcotest.check_raises "negative p" (Invalid_argument msg) (fun () ->
      ignore (Stats.percentile (-1.) xs));
  Alcotest.check_raises "p > 100" (Invalid_argument msg) (fun () ->
      ignore (Stats.percentile 100.5 xs));
  Alcotest.check_raises "nan p" (Invalid_argument msg) (fun () ->
      ignore (Stats.percentile Float.nan xs));
  check cf "empty list still fine" 0. (Stats.percentile 50. [])

let test_percentile_nan_samples () =
  (* Float.compare gives NaN a definite place (first), so the sorted
     order of the real samples survives a stray NaN. *)
  check cf "max unaffected by NaN" 9. (Stats.percentile 100. [ 4.; Float.nan; 9.; 1. ]);
  Alcotest.(check bool) "NaN sorts first" true
    (Float.is_nan (Stats.percentile 0. [ 4.; Float.nan; 9. ]))

let test_stddev () =
  check cf "constant" 0. (Stats.stddev [ 2.; 2.; 2. ]);
  check (Alcotest.float 1e-6) "known" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stddev_sample () =
  check cf "degenerate" 0. (Stats.stddev_sample [ 42. ]);
  (* For [2;4], population stddev is 1 while the n-1 estimator gives
     sqrt(2). *)
  check (Alcotest.float 1e-9) "bessel corrected" (Float.sqrt 2.)
    (Stats.stddev_sample [ 2.; 4. ]);
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check (Alcotest.float 1e-6) "known"
    (2. *. Float.sqrt (8. /. 7.))
    (Stats.stddev_sample xs);
  Alcotest.(check bool) "sample >= population" true
    (Stats.stddev_sample xs >= Stats.stddev xs)

let test_pct_change () =
  check cf "down" (-50.) (Stats.pct_change ~before:2. ~after:1.);
  check cf "zero before" 0. (Stats.pct_change ~before:0. ~after:5.)

let test_histogram () =
  let h = Stats.histogram ~lo:0. ~hi:10. ~buckets:5 in
  List.iter (Stats.hist_add h) [ 0.5; 1.5; 9.9; -3.; 42. ];
  let counts = Stats.hist_counts h in
  check ci "total counts every sample" 5 (Stats.hist_total h);
  check ci "first bucket: 0.5 and 1.5 only" 2 counts.(0);
  check ci "last bucket: 9.9 only" 1 counts.(4);
  check ci "underflow recorded, not clamped" 1 (Stats.hist_underflow h);
  check ci "overflow recorded, not clamped" 1 (Stats.hist_overflow h);
  (* The top bucket is closed: a sample exactly at hi is in range, so
     histogram totals match the advertised [lo, hi] span. *)
  Stats.hist_add h 10.;
  check ci "hi lands in the top bucket" 2 (Stats.hist_counts h).(4);
  check ci "hi is not overflow" 1 (Stats.hist_overflow h);
  Stats.hist_add h 10.0000001;
  check ci "just above hi is overflow" 2 (Stats.hist_overflow h);
  check ci "in-range mass + out-of-range = total" (Stats.hist_total h)
    (Array.fold_left ( + ) 0 (Stats.hist_counts h)
    + Stats.hist_underflow h + Stats.hist_overflow h)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_inclusive 100.))
    (fun xs ->
      let p25 = Stats.percentile 25. xs and p75 = Stats.percentile 75. xs in
      p25 <= p75 +. 1e-9)

(* ---- Tablefmt ---- *)

let test_table_render () =
  let t = Tablefmt.create ~headers:[ "a"; "b" ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_row t [ "longer" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "mentions header" true (String.length s > 0);
  (* Every line has the same width. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_too_many_cells () =
  let t = Tablefmt.create ~headers:[ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: too many cells")
    (fun () -> Tablefmt.add_row t [ "1"; "2" ])

let test_fmt_int () =
  check Alcotest.string "thousands" "1,733,376" (Tablefmt.fmt_int 1_733_376);
  check Alcotest.string "small" "42" (Tablefmt.fmt_int 42);
  check Alcotest.string "negative" "-1,000" (Tablefmt.fmt_int (-1000))

let test_fmt_pct () =
  check Alcotest.string "signed" "+3.90%" (Tablefmt.fmt_pct 3.9);
  check Alcotest.string "negative" "-21.70%" (Tablefmt.fmt_pct (-21.7))

(* ---- Fsio ---- *)

let test_atomic_write_perms () =
  (* [atomic_write_string] must produce a normally-readable file: 0o644
     filtered by the umask, not [Filename.temp_file]'s private 0o600. *)
  let dir = Filename.temp_file "prefix_fsio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      Unix.rmdir dir)
    (fun () ->
      let umask = Unix.umask 0 in
      ignore (Unix.umask umask);
      Fsio.atomic_write_string path "hello";
      let st = Unix.stat path in
      check ci "permissions honor the umask" (0o644 land lnot umask)
        (st.Unix.st_perm land 0o777);
      check Alcotest.string "content" "hello"
        (match Fsio.read_file path with Ok s -> s | Error e -> Alcotest.fail e);
      (* Overwrite is atomic: the file always holds old or new content,
         and permissions stay sane. *)
      Fsio.atomic_write_string ~fsync:true path "world";
      check Alcotest.string "overwritten" "world"
        (match Fsio.read_file path with Ok s -> s | Error e -> Alcotest.fail e);
      let st = Unix.stat path in
      check ci "permissions after overwrite" (0o644 land lnot umask)
        (st.Unix.st_perm land 0o777))

(* ---- Crc32 ---- *)

(* [pos + len] wraps around for [len = max_int]; a slice running past
   the end must raise, not checksum an empty range. *)
let test_crc32_sub_bytes_wrapping () =
  match Crc32.sub_bytes (Bytes.make 8 'x') ~pos:4 ~len:max_int with
  | crc -> Alcotest.failf "wrapping slice accepted (crc %d)" crc
  | exception Invalid_argument _ -> ()

let test_crc32_sub_big_wrapping () =
  let big = Bigio.of_bytes (Bytes.make 8 'x') in
  check ci "in-bounds slice" (Crc32.string "xxxx") (Crc32.sub_big big ~pos:4 ~len:4);
  match Crc32.sub_big big ~pos:4 ~len:max_int with
  | crc -> Alcotest.failf "wrapping slice accepted (crc %d)" crc
  | exception Invalid_argument _ -> ()

let suite =
  [ ( "util",
      [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "rng int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
        Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "rng geometric" `Quick test_rng_geometric;
        Alcotest.test_case "rng zipf bounds" `Quick test_rng_zipf_bounds;
        Alcotest.test_case "rng zipf skew" `Quick test_rng_zipf_skew;
        QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "geomean domain" `Quick test_geomean_domain;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "percentile domain" `Quick test_percentile_domain;
        Alcotest.test_case "percentile NaN samples" `Quick test_percentile_nan_samples;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "stddev_sample" `Quick test_stddev_sample;
        Alcotest.test_case "pct_change" `Quick test_pct_change;
        Alcotest.test_case "histogram" `Quick test_histogram;
        QCheck_alcotest.to_alcotest prop_percentile_monotone;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table arity" `Quick test_table_too_many_cells;
        Alcotest.test_case "fmt_int" `Quick test_fmt_int;
        Alcotest.test_case "fmt_pct" `Quick test_fmt_pct;
        Alcotest.test_case "atomic write perms" `Quick test_atomic_write_perms;
        Alcotest.test_case "crc32 sub_bytes rejects a wrapping slice" `Quick
          test_crc32_sub_bytes_wrapping;
        Alcotest.test_case "crc32 sub_big rejects a wrapping slice" `Quick
          test_crc32_sub_big_wrapping ] ) ]
