(* Tests for Nisq_util: Rng, Pool, Stats, Table. *)

module Rng = Nisq_util.Rng
module Stats = Nisq_util.Stats
module Table = Nisq_util.Table
module Pool = Nisq_util.Pool

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy_independence () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
    (Rng.bits64 b);
  (* advancing one does not advance the other *)
  let _ = Rng.bits64 a in
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after copy" false (va = vb)

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 200 do
    let v = Rng.uniform r ~lo:(-3.0) ~hi:(-1.0) in
    Alcotest.(check bool) "in [-3, -1)" true (v >= -3.0 && v < -1.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 6 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r ~mean:5.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean near 5" true (Float.abs (Stats.mean xs -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (Stats.stddev xs -. 2.0) < 0.1)

let test_rng_lognormal_positive () =
  let r = Rng.create 8 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "positive" true (Rng.lognormal r ~mu:(-3.0) ~sigma:1.0 > 0.0)
  done

let test_rng_bool_balance () =
  let r = Rng.create 9 in
  let trues = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 4700 && !trues < 5300)

let test_rng_shuffle_permutation () =
  let r = Rng.create 10 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_streams_differ () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_choose () =
  let r = Rng.create 12 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    let v = Rng.choose r a in
    Alcotest.(check bool) "member" true (Array.exists (fun s -> s = v) a)
  done

let test_rng_mix_distinct_streams () =
  (* chunk seeds must not collide across a realistic index range *)
  let seen = Hashtbl.create 4096 in
  for i = 0 to 2047 do
    let v = Rng.mix 424242 i in
    Alcotest.(check bool) (Printf.sprintf "no collision at %d" i) false
      (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_rng_mix_deterministic () =
  Alcotest.(check int) "same inputs same seed" (Rng.mix 7 13) (Rng.mix 7 13);
  Alcotest.(check bool) "seed sensitivity" false (Rng.mix 7 13 = Rng.mix 8 13)

let test_pool_parallel_chunks_order () =
  let pool = Pool.create ~size:4 () in
  let got = Pool.parallel_chunks pool ~chunks:37 (fun i -> i * i) in
  Alcotest.(check (list int)) "index order" (List.init 37 (fun i -> i * i)) got;
  Pool.shutdown pool

let test_pool_sequential_fallback () =
  let pool = Pool.create ~size:0 () in
  Alcotest.(check int) "no workers" 0 (Pool.size pool);
  Alcotest.(check (list int)) "still computes"
    (List.init 5 Fun.id)
    (Pool.parallel_chunks pool ~chunks:5 Fun.id);
  Pool.shutdown pool

let test_pool_rejects_nonpositive_chunks () =
  let pool = Pool.create ~size:0 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pool.parallel_chunks pool ~chunks:0 Fun.id);
       false
     with Invalid_argument _ -> true)

let test_pool_propagates_exceptions () =
  let pool = Pool.create ~size:2 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Pool.parallel_chunks pool ~chunks:8 (fun i ->
              if i = 5 then failwith "boom" else i));
       false
     with Failure _ -> true);
  Pool.shutdown pool

let test_pool_reusable_across_calls () =
  let pool = Pool.create ~size:2 () in
  for round = 1 to 5 do
    let total =
      List.fold_left ( + ) 0
        (Pool.parallel_chunks pool ~chunks:16 (fun i -> (round * 100) + i))
    in
    Alcotest.(check int) "sum" ((round * 1600) + 120) total
  done;
  Pool.shutdown pool;
  (* post-shutdown calls degrade to sequential, not deadlock *)
  Alcotest.(check (list int)) "after shutdown" [ 0; 1; 2 ]
    (Pool.parallel_chunks pool ~chunks:3 Fun.id)

let with_pool size f =
  let pool = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* A chunk function that calls back into its own pool is trapped with
   Invalid_argument instead of deadlocking, on both pool paths. *)
let test_pool_reentrancy_guard () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let trapped =
            Pool.parallel_chunks pool ~chunks:2 (fun _ ->
                try
                  ignore (Pool.parallel_chunks pool ~chunks:1 (fun i -> i));
                  false
                with Invalid_argument _ -> true)
          in
          List.iter
            (Alcotest.(check bool)
               (Printf.sprintf "size %d: nested call trapped" size)
               true)
            trapped))
    [ 0; 2 ]

let test_pool_cross_pool_nesting_ok () =
  with_pool 2 (fun outer ->
      with_pool 0 (fun inner ->
          let sums =
            Pool.parallel_chunks outer ~chunks:2 (fun i ->
                Pool.parallel_chunks inner ~chunks:3 (fun j -> (10 * i) + j)
                |> List.fold_left ( + ) 0)
          in
          Alcotest.(check (list int)) "different-pool nesting" [ 3; 33 ] sums))

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stats_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_geomean () =
  check_float "geomean of 1,4" 2.0 (Stats.geomean [| 1.0; 4.0 |])

let test_stats_geomean_zero_clamped () =
  Alcotest.(check bool) "clamped, not zero" true (Stats.geomean [| 0.0; 4.0 |] > 0.0)

let test_stats_stddev () =
  check_float "stddev" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.5 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.5 hi

let test_stats_median_odd () =
  check_float "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stats_median_even () =
  check_float "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0)

let test_stats_ratio_summary () =
  let geo, mx = Stats.ratio_summary ~num:[| 2.0; 8.0 |] ~den:[| 1.0; 2.0 |] in
  check_float "geomean of 2x and 4x" (sqrt 8.0) geo;
  check_float "max" 4.0 mx

let test_table_alignment () =
  let s =
    Table.render
      ~align:[ Table.Left; Table.Right ]
      ~header:[ "a"; "num" ]
      ~rows:[ [ "xx"; "1" ]; [ "y"; "22" ] ]
      ()
  in
  Alcotest.(check bool) "right-aligned column" true
    (String.length s > 0
    && List.exists
         (fun line -> line = "xx    1" || line = "xx     1")
         (String.split_on_char '\n' s))

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b" ] ~rows:[ [ "only" ] ] () in
  Alcotest.(check bool) "renders without exception" true (String.length s > 0)

let test_table_fmt () =
  Alcotest.(check string) "fmt_float" "1.500" (Table.fmt_float 1.5);
  Alcotest.(check string) "fmt_pct" "42.3%" (Table.fmt_pct 0.423)

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng copy independence", `Quick, test_rng_copy_independence);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int rejects non-positive", `Quick, test_rng_int_rejects_nonpositive);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng uniform bounds", `Quick, test_rng_uniform_bounds);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng lognormal positive", `Quick, test_rng_lognormal_positive);
    ("rng bool balance", `Quick, test_rng_bool_balance);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("rng split streams differ", `Quick, test_rng_split_streams_differ);
    ("rng choose picks members", `Quick, test_rng_choose);
    ("rng mix streams distinct", `Quick, test_rng_mix_distinct_streams);
    ("rng mix deterministic", `Quick, test_rng_mix_deterministic);
    ("pool preserves chunk order", `Quick, test_pool_parallel_chunks_order);
    ("pool sequential fallback", `Quick, test_pool_sequential_fallback);
    ("pool rejects non-positive chunks", `Quick, test_pool_rejects_nonpositive_chunks);
    ("pool propagates exceptions", `Quick, test_pool_propagates_exceptions);
    ("pool reusable across calls", `Quick, test_pool_reusable_across_calls);
    ("pool re-entrancy guard", `Quick, test_pool_reentrancy_guard);
    ("cross-pool nesting ok", `Quick, test_pool_cross_pool_nesting_ok);
    ("stats mean", `Quick, test_stats_mean);
    ("stats mean empty", `Quick, test_stats_mean_empty);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats geomean clamps zeros", `Quick, test_stats_geomean_zero_clamped);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats min_max", `Quick, test_stats_min_max);
    ("stats median odd", `Quick, test_stats_median_odd);
    ("stats median even", `Quick, test_stats_median_even);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats ratio summary", `Quick, test_stats_ratio_summary);
    ("table alignment", `Quick, test_table_alignment);
    ("table pads short rows", `Quick, test_table_pads_short_rows);
    ("table formatting helpers", `Quick, test_table_fmt);
  ]
