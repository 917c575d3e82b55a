(* The benchmark's arithmetic and checks on synthetic inputs. *)

let close = Alcotest.float 1e-9

let percentiles () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check close "median of odd count" 3.0 (Calc.median xs);
  Alcotest.check close "median of even count" 2.5 (Calc.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.check close "p0 is the minimum" 1.0 (Calc.percentile xs 0.0);
  Alcotest.check close "p100 is the maximum" 5.0 (Calc.percentile xs 1.0);
  Alcotest.check close "interpolates between ranks" 4.6 (Calc.percentile xs 0.9);
  Alcotest.check close "single sample" 7.0 (Calc.median [| 7.0 |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Calc.percentile: no samples")
    (fun () -> ignore (Calc.median [||]));
  Alcotest.(check bool) "input left unsorted" true (xs.(0) = 5.0)

let tail () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 1e-9))) "no p90 under 100 samples" None (Calc.p90 (xs 99));
  Alcotest.(check (option (float 1e-9)))
    "p90 of 1..100" (Some 90.1) (Calc.p90 (xs 100))

let throughput () =
  Alcotest.check close "ops per second" 2.5 (Calc.throughput ~ops:10 ~seconds:4.0);
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Calc.throughput: non-positive duration") (fun () ->
      ignore (Calc.throughput ~ops:1 ~seconds:0.0))

let failure_share () =
  Alcotest.check close "none failed" 0.0 (Calc.failure_share ~attempted:10 ~failed:0);
  Alcotest.check close "a quarter failed" 0.25 (Calc.failure_share ~attempted:8 ~failed:2);
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Calc.failure_share: bad failure count") (fun () ->
      ignore (Calc.failure_share ~attempted:1 ~failed:2))

let host_factor () =
  Alcotest.check close "reference speed" 1.0
    (Calc.host_factor ~nominal_ms:25.0 [| 40.0; 20.0; 25.0 |]);
  Alcotest.check close "half the reference speed" 2.0
    (Calc.host_factor ~nominal_ms:25.0 [| 49.0; 51.0; 50.0 |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Calc.percentile: no samples")
    (fun () -> ignore (Calc.host_factor ~nominal_ms:25.0 [||]))

let consistency () =
  let ok ~ops_per_s ~mean_ms = (Calc.consistency ~ops_per_s ~mean_ms).Calc.ok in
  Alcotest.(check bool) "closed loop of 100 ms ops" true (ok ~ops_per_s:9.8 ~mean_ms:100.0);
  Alcotest.(check bool) "4.9% bookkeeping" true (ok ~ops_per_s:9.51 ~mean_ms:100.0);
  Alcotest.(check bool) "6% bookkeeping" false (ok ~ops_per_s:9.4 ~mean_ms:100.0);
  (* a 9.6 s median op beside 69.6 ops/s: ops from two classes *)
  Alcotest.(check bool) "mixed classes" false (ok ~ops_per_s:69.6 ~mean_ms:9600.0)

let class_guards () =
  let all_ok gs = List.for_all (fun g -> g.Calc.ok) gs in
  let hits_only = { Calc.any_class with Calc.no_misses = true } in
  let moves_in_class = { Calc.any_class with Calc.moves_in_class = true } in
  Alcotest.(check bool) "hits only holds" true
    (all_ok (Calc.class_guards hits_only ~misses:0 ~moves_kept:[]));
  Alcotest.(check bool) "one miss breaks hits only" false
    (all_ok (Calc.class_guards hits_only ~misses:1 ~moves_kept:[]));
  Alcotest.(check bool) "moves keep the die" true
    (all_ok (Calc.class_guards moves_in_class ~misses:3 ~moves_kept:[ true; true ]));
  Alcotest.(check bool) "one move grows the die" false
    (all_ok (Calc.class_guards moves_in_class ~misses:3 ~moves_kept:[ true; false ]));
  Alcotest.(check int) "no promise, no guard" 0
    (List.length (Calc.class_guards Calc.any_class ~misses:1 ~moves_kept:[ false ]))

let pinned_env () =
  let env =
    Calc.env_pairs
      [| "PATH=/bin"; "POTX_CACHE_MB=64"; "OCAMLRUNPARAM=s=4M"; "POTX_ENGINE="; "HOME=/h" |]
  in
  Alcotest.(check (list string))
    "knobs that change the program" [ "POTX_CACHE_MB"; "OCAMLRUNPARAM"; "POTX_ENGINE" ]
    (Calc.pinned_env_violations env);
  Alcotest.(check (list string)) "clean environment" []
    (Calc.pinned_env_violations (Calc.env_pairs [| "PATH=/bin"; "XPOTX_A=1" |]))

let result_line () =
  Alcotest.(check string)
    "last-line object"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.25, "unit": "ms"}}}|}
    (Calc.result_line ~correct:true ~attempted:3 ~failed:0 [ ("op_p50_ms", 1.25, "ms") ]);
  Alcotest.check_raises "non-finite value"
    (Invalid_argument "Calc.result_line: x is not finite") (fun () ->
      ignore (Calc.result_line ~correct:true ~attempted:1 ~failed:0 [ ("x", Float.nan, "ms") ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "calc",
        [
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "p90 tail" `Quick tail;
          Alcotest.test_case "throughput" `Quick throughput;
          Alcotest.test_case "failure share" `Quick failure_share;
          Alcotest.test_case "host factor" `Quick host_factor;
          Alcotest.test_case "throughput consistency" `Quick consistency;
          Alcotest.test_case "class guards" `Quick class_guards;
          Alcotest.test_case "pinned environment" `Quick pinned_env;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
