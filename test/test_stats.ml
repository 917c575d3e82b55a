let checkb = Alcotest.(check bool)

let checkf msg a b = Alcotest.(check (float 1e-9)) msg a b

let checkf_eps eps msg a b = Alcotest.(check (float eps)) msg a b

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Stats.Rng.create 123 and b = Stats.Rng.create 123 in
  for _ = 1 to 100 do
    checkf "same stream" (Stats.Rng.float a) (Stats.Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Stats.Rng.create 1 and b = Stats.Rng.create 2 in
  let xs = List.init 10 (fun _ -> Stats.Rng.float a) in
  let ys = List.init 10 (fun _ -> Stats.Rng.float b) in
  checkb "different streams" true (xs <> ys)

let test_rng_range () =
  let rng = Stats.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Stats.Rng.float rng in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0);
    let i = Stats.Rng.int rng 17 in
    checkb "int in range" true (i >= 0 && i < 17)
  done

let test_rng_uniform_mean () =
  let rng = Stats.Rng.create 99 in
  let xs = Array.init 20000 (fun _ -> Stats.Rng.uniform rng ~lo:2.0 ~hi:4.0) in
  checkf_eps 0.05 "uniform mean" 3.0 (Stats.Summary.mean xs)

let test_rng_gaussian_moments () =
  let rng = Stats.Rng.create 4242 in
  let xs = Array.init 50000 (fun _ -> Stats.Rng.gaussian rng) in
  checkf_eps 0.03 "gaussian mean" 0.0 (Stats.Summary.mean xs);
  checkf_eps 0.03 "gaussian std" 1.0 (Stats.Summary.std xs)

let test_rng_split_independent () =
  let rng = Stats.Rng.create 5 in
  let child = Stats.Rng.split rng in
  let xs = List.init 20 (fun _ -> Stats.Rng.float rng) in
  let ys = List.init 20 (fun _ -> Stats.Rng.float child) in
  checkb "split differs" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let rng = Stats.Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Stats.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* ---- Summary ---- *)

let test_summary_basics () =
  let s = Stats.Summary.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "mean" 3.0 s.Stats.Summary.mean;
  checkf "median" 3.0 s.Stats.Summary.median;
  checkf "min" 1.0 s.Stats.Summary.min;
  checkf "max" 5.0 s.Stats.Summary.max;
  checkf_eps 1e-9 "std" (sqrt 2.5) s.Stats.Summary.std

let test_percentile_interp () =
  let xs = [| 0.0; 10.0 |] in
  checkf "p50 interpolates" 5.0 (Stats.Summary.percentile xs 0.5);
  checkf "p0" 0.0 (Stats.Summary.percentile xs 0.0);
  checkf "p100" 10.0 (Stats.Summary.percentile xs 1.0)

let test_summary_singleton () =
  let s = Stats.Summary.of_list [ 7.0 ] in
  checkf "std of singleton" 0.0 s.Stats.Summary.std

let test_summary_empty () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Summary.of_array: empty")
    (fun () -> ignore (Stats.Summary.of_array [||]))

(* ---- Histogram ---- *)

let test_histogram_binning () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Stats.Histogram.add h 0.5;
  Stats.Histogram.add h 9.5;
  Stats.Histogram.add h 5.0;
  Stats.Histogram.add h (-3.0);
  (* clamps to first bin *)
  Stats.Histogram.add h 42.0;
  (* clamps to last bin *)
  let c = Stats.Histogram.counts h in
  Alcotest.(check int) "first bin" 2 c.(0);
  Alcotest.(check int) "last bin" 2 c.(9);
  Alcotest.(check int) "middle bin" 1 c.(5);
  Alcotest.(check int) "total" 5 (Stats.Histogram.count h)

let test_histogram_bounds () =
  let h = Stats.Histogram.create ~lo:(-1.0) ~hi:1.0 ~bins:4 in
  let lo, hi = Stats.Histogram.bin_bounds h 0 in
  checkf "bin0 lo" (-1.0) lo;
  checkf "bin0 hi" (-0.5) hi

(* ---- Correlation ---- *)

let test_pearson_perfect () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = Array.map (fun v -> (2.0 *. v) +. 1.0) x in
  checkf_eps 1e-9 "pearson linear" 1.0 (Stats.Correlation.pearson x y)

let test_spearman_monotonic () =
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let y = Array.map (fun v -> v ** 3.0) x in
  checkf_eps 1e-9 "spearman monotone" 1.0 (Stats.Correlation.spearman x y);
  let yrev = [| 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  checkf_eps 1e-9 "spearman reversed" (-1.0) (Stats.Correlation.spearman x yrev)

let test_kendall () =
  let x = [| 1.0; 2.0; 3.0 |] in
  checkf_eps 1e-9 "kendall identity" 1.0 (Stats.Correlation.kendall x x);
  let y = [| 3.0; 2.0; 1.0 |] in
  checkf_eps 1e-9 "kendall reversed" (-1.0) (Stats.Correlation.kendall x y);
  (* One swap in three elements: 2 concordant, 1 discordant -> 1/3 *)
  let z = [| 2.0; 1.0; 3.0 |] in
  checkf_eps 1e-9 "kendall one swap" (1.0 /. 3.0) (Stats.Correlation.kendall x z)

let test_ranks_with_ties () =
  let r = Stats.Correlation.ranks [| 10.0; 20.0; 20.0; 30.0 |] in
  Alcotest.(check (array (float 1e-9))) "tie averaging" [| 1.0; 2.5; 2.5; 4.0 |] r

let test_top_k_overlap () =
  let a = [| 1.0; 5.0; 3.0; 9.0; 2.0 |] in
  let b = [| 9.0; 5.0; 3.0; 1.0; 2.0 |] in
  (* top-2 of a = {3, 1}; top-2 of b = {0, 1} -> overlap 1/2 *)
  checkf "top2" 0.5 (Stats.Correlation.top_k_overlap a b 2)

let prop_spearman_bounds =
  QCheck.Test.make ~name:"spearman within [-1,1]" ~count:200
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 2 20) (float_range (-100.) 100.))
              (array_of_size (QCheck.Gen.int_range 2 20) (float_range (-100.) 100.)))
    (fun (a, b) ->
      QCheck.assume (Array.length a = Array.length b);
      let s = Stats.Correlation.spearman a b in
      s >= -1.0001 && s <= 1.0001)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_spearman_bounds ]

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "range" `Quick test_rng_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "percentile" `Quick test_percentile_interp;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "empty" `Quick test_summary_empty;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "pearson" `Quick test_pearson_perfect;
          Alcotest.test_case "spearman" `Quick test_spearman_monotonic;
          Alcotest.test_case "kendall" `Quick test_kendall;
          Alcotest.test_case "ranks ties" `Quick test_ranks_with_ties;
          Alcotest.test_case "top-k" `Quick test_top_k_overlap;
        ] );
      ("correlation-properties", qsuite);
    ]
