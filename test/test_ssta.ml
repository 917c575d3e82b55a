(* Differential tests of Sta.Ssta against the Sta.Montecarlo oracle,
   plus unit coverage of the canonical algebra, Clark's max and the
   process-window fit.

   Tolerance contract (mirrored in DESIGN.md): per-endpoint arrival
   mean within 2% + 4 standard errors of the Monte-Carlo estimate;
   arrival sigma within 35% + 0.3 ps (the first-order form freezes
   slews at their means, and slew variation compounds down deep
   chains); criticality is rank-checked only
   (a clear >50% winner must agree), because dropping cross-endpoint
   correlation flattens the probabilities.  The slop absorbs both MC
   sampling error and the canonical approximation (reconvergent local
   correlation dropped, Gaussian refit at each max). *)

let tech = Layout.Tech.node90

let env = Circuit.Delay_model.default_env tech

let checkb = Alcotest.(check bool)

let checkf eps = Alcotest.(check (float eps))

(* ---- Gaussian helpers ---- *)

let test_gaussian_cdf () =
  checkf 1e-9 "cdf 0" 0.5 (Stats.Gaussian.cdf 0.0);
  checkf 1e-6 "cdf symmetry" 1.0 (Stats.Gaussian.cdf 1.3 +. Stats.Gaussian.cdf (-1.3));
  checkf 1e-4 "cdf 1.96" 0.975 (Stats.Gaussian.cdf 1.96);
  checkb "monotone" true (Stats.Gaussian.cdf 0.5 < Stats.Gaussian.cdf 1.5)

let test_gaussian_max_moments () =
  (* max of two iid N(0,1): mean 1/sqrt(pi), var 1 - 1/pi. *)
  let m =
    Stats.Gaussian.max_moments ~mean1:0.0 ~sigma1:1.0 ~mean2:0.0 ~sigma2:1.0
      ~rho:0.0
  in
  checkf 1e-6 "iid max mean" (1.0 /. sqrt Float.pi) m.Stats.Gaussian.max_mean;
  checkf 1e-6 "iid max var" (1.0 -. (1.0 /. Float.pi)) m.Stats.Gaussian.max_var;
  checkf 1e-9 "iid tightness" 0.5 m.Stats.Gaussian.tightness;
  (* Fully correlated equal sigmas: max is just the larger mean. *)
  let d =
    Stats.Gaussian.max_moments ~mean1:5.0 ~sigma1:2.0 ~mean2:1.0 ~sigma2:2.0
      ~rho:1.0
  in
  checkf 1e-9 "degenerate mean" 5.0 d.Stats.Gaussian.max_mean;
  checkf 1e-9 "degenerate tightness" 1.0 d.Stats.Gaussian.tightness

(* ---- Canonical algebra ---- *)

let test_add_exact () =
  let a = { Sta.Ssta.mean = 1.0; g = 2.0; ind = 3.0 } in
  let b = { Sta.Ssta.mean = 10.0; g = 4.0; ind = 4.0 } in
  let s = Sta.Ssta.add a b in
  checkf 1e-9 "mean adds" 11.0 (Sta.Ssta.mean s);
  checkf 1e-9 "global adds" 6.0 s.Sta.Ssta.g;
  checkf 1e-9 "independent RSS" 5.0 s.Sta.Ssta.ind;
  checkf 1e-9 "sigma" (Float.hypot 6.0 5.0) (Sta.Ssta.sigma s)

let test_cmax_dominant () =
  (* When one operand dominates by many sigmas, Clark's max is it. *)
  let a = { Sta.Ssta.mean = 100.0; g = 1.0; ind = 1.0 } in
  let b = { Sta.Ssta.mean = 10.0; g = 1.0; ind = 1.0 } in
  let m = Sta.Ssta.cmax a b in
  checkf 1e-6 "mean" 100.0 (Sta.Ssta.mean m);
  checkf 1e-6 "sigma" (Sta.Ssta.sigma a) (Sta.Ssta.sigma m);
  checkf 1e-9 "tightness" 1.0 (Sta.Ssta.tightness a b)

let test_tightness_complementary () =
  let a = { Sta.Ssta.mean = 50.0; g = 2.0; ind = 1.0 } in
  let b = { Sta.Ssta.mean = 51.0; g = 1.5; ind = 2.5 } in
  checkf 1e-9 "P(a>=b) + P(b>=a) = 1" 1.0
    (Sta.Ssta.tightness a b +. Sta.Ssta.tightness b a)

(* ---- Clark max vs sampled max on hand-built 2-path fixtures ---- *)

(* Sample the joint law of two canonical forms (shared G, independent
   I per form) and compare the empirical max moments against cmax. *)
let check_clark_vs_sampled name a b =
  let trials = 40_000 in
  let rng = Stats.Rng.create 7 in
  let samples = Array.make trials 0.0 in
  let a_wins = ref 0 in
  for i = 0 to trials - 1 do
    let gg = Stats.Rng.normal rng ~mean:0.0 ~std:1.0 in
    let va =
      Sta.Ssta.mean a
      +. (a.Sta.Ssta.g *. gg)
      +. (a.Sta.Ssta.ind *. Stats.Rng.normal rng ~mean:0.0 ~std:1.0)
    in
    let vb =
      Sta.Ssta.mean b
      +. (b.Sta.Ssta.g *. gg)
      +. (b.Sta.Ssta.ind *. Stats.Rng.normal rng ~mean:0.0 ~std:1.0)
    in
    if va >= vb then incr a_wins;
    samples.(i) <- Float.max va vb
  done;
  let s = Stats.Summary.of_array samples in
  let m = Sta.Ssta.cmax a b in
  let se = s.Stats.Summary.std /. sqrt (float_of_int trials) in
  checkb (name ^ ": max mean") true
    (Float.abs (Sta.Ssta.mean m -. s.Stats.Summary.mean) < (5.0 *. se) +. 0.05);
  checkb (name ^ ": max sigma") true
    (Float.abs (Sta.Ssta.sigma m -. s.Stats.Summary.std)
    < (0.05 *. s.Stats.Summary.std) +. 0.05);
  checkb (name ^ ": tightness") true
    (Float.abs
       (Sta.Ssta.tightness a b -. (float_of_int !a_wins /. float_of_int trials))
    < 0.02)

let test_clark_symmetric () =
  check_clark_vs_sampled "symmetric"
    { Sta.Ssta.mean = 100.0; g = 3.0; ind = 2.0 }
    { Sta.Ssta.mean = 100.0; g = 3.0; ind = 2.0 }

let test_clark_skewed () =
  check_clark_vs_sampled "skewed"
    { Sta.Ssta.mean = 104.0; g = 2.0; ind = 1.0 }
    { Sta.Ssta.mean = 100.0; g = 1.0; ind = 4.0 }

let test_clark_correlated () =
  check_clark_vs_sampled "correlated"
    { Sta.Ssta.mean = 101.0; g = 5.0; ind = 0.5 }
    { Sta.Ssta.mean = 100.0; g = 4.5; ind = 0.8 }

(* ---- Process-window fit ---- *)

let test_fit_recovers_components () =
  (* dl.(c).(g) = m_c + r_cg with zero-mean residual rows: the fit must
     read back the condition means and the residual RMS exactly. *)
  let m = [| -3.0; 0.0; 3.0 |] in
  let r = [| [| 1.0; -1.0; 0.5; -0.5 |];
             [| -2.0; 2.0; 1.0; -1.0 |];
             [| 0.0; 0.0; 0.0; 0.0 |] |] in
  let dl = Array.mapi (fun c row -> Array.map (fun x -> m.(c) +. x) row) r in
  let f = Sta.Ssta.fit dl in
  checkf 1e-9 "shift" 0.0 f.Sta.Ssta.shift;
  checkf 1e-9 "global sigma" (sqrt 6.0) f.Sta.Ssta.global_sigma;
  let rms =
    sqrt
      (Array.fold_left
         (fun acc row -> Array.fold_left (fun a x -> a +. (x *. x)) acc row)
         0.0 r
      /. 12.0)
  in
  checkf 1e-9 "local sigma" rms f.Sta.Ssta.local_sigma;
  Alcotest.(check int) "sites" 4 f.Sta.Ssta.sites;
  Alcotest.(check int) "conditions" 3 f.Sta.Ssta.conditions

let test_fit_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Ssta.fit: no conditions")
    (fun () -> ignore (Sta.Ssta.fit [||]));
  checkb "ragged raises" true
    (match Sta.Ssta.fit [| [| 1.0; 2.0 |]; [| 3.0 |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Full-graph differential against the Monte-Carlo oracle ---- *)

let variation ~spread ~shift =
  {
    Sta.Ssta.sigma_global = spread;
    sigma_local = 1.0;
    mean_shift = shift;
    clock_period = 500.0;
  }

let mc_of_ssta trials (c : Sta.Ssta.config) =
  {
    Sta.Montecarlo.trials;
    sigma_global = c.Sta.Ssta.sigma_global;
    sigma_local = c.Sta.Ssta.sigma_local;
    mean_shift = c.Sta.Ssta.mean_shift;
    clock_period = c.Sta.Ssta.clock_period;
  }

let with_pool domains f =
  if domains <= 1 then f None
  else begin
    let pool = Exec.Pool.create ~name:"test_ssta" ~domains () in
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () -> f (Some pool))
  end

(* One SSTA-vs-MC comparison: every endpoint's canonical arrival
   moments and criticality must match the sampled distribution within
   the documented tolerance. *)
let check_differential ~seed ~levels ~width ~spread ~shift ~domains =
  let n = Circuit.Generator.random_logic (Stats.Rng.create seed) ~levels ~width in
  let loads = Circuit.Loads.of_netlist env n in
  let config = variation ~spread ~shift in
  let trials = 600 in
  let ssta = Sta.Ssta.analyze env n ~loads config in
  let mc =
    with_pool domains (fun pool ->
        Sta.Montecarlo.run ?pool env n ~loads (mc_of_ssta trials config)
          (Stats.Rng.create (seed + 1)))
  in
  let index_of net =
    let found = ref (-1) in
    Array.iteri
      (fun i m -> if m = net then found := i)
      mc.Sta.Montecarlo.endpoints;
    !found
  in
  (* Empirical criticality: fraction of trials each endpoint carries
     the max arrival. *)
  let wins = Array.make (Array.length mc.Sta.Montecarlo.endpoints) 0 in
  for trial = 0 to trials - 1 do
    let best = ref 0 and best_a = ref neg_infinity in
    Array.iteri
      (fun e col ->
        if col.(trial) > !best_a then begin
          best := e;
          best_a := col.(trial)
        end)
      mc.Sta.Montecarlo.arrivals;
    wins.(!best) <- wins.(!best) + 1
  done;
  let moments_ok =
    List.for_all
      (fun (ep : Sta.Ssta.endpoint) ->
        let e = index_of ep.Sta.Ssta.net in
        let s = Stats.Summary.of_array mc.Sta.Montecarlo.arrivals.(e) in
        let se = s.Stats.Summary.std /. sqrt (float_of_int trials) in
        let mean_ok =
          Float.abs (Sta.Ssta.mean ep.Sta.Ssta.arrival -. s.Stats.Summary.mean)
          <= (0.02 *. s.Stats.Summary.mean) +. (4.0 *. se)
        in
        let sigma_ok =
          Float.abs (Sta.Ssta.sigma ep.Sta.Ssta.arrival -. s.Stats.Summary.std)
          <= (0.35 *. s.Stats.Summary.std) +. 0.3
        in
        e >= 0 && mean_ok && sigma_ok)
      ssta.Sta.Ssta.endpoints
  in
  (* Criticality magnitudes are only qualitative: cross-endpoint
     correlation through shared cones is dropped by the canonical
     form, which flattens the distribution (ties resolve by
     independent noise more often than in silicon).  The contract is
     rank agreement: the endpoint SSTA calls most critical must win
     within 0.25 of the empirically most-winning endpoint, so
     near-ties may swap but a clear sampled winner may never be
     ranked low. *)
  let winner_ok =
    match ssta.Sta.Ssta.endpoints with
    | top :: _ ->
        let freq e = float_of_int wins.(e) /. float_of_int trials in
        let emp_best = ref 0 in
        Array.iteri (fun e w -> if w > wins.(!emp_best) then emp_best := e) wins;
        freq (index_of top.Sta.Ssta.net) >= freq !emp_best -. 0.25
    | [] -> true
  in
  moments_ok && winner_ok

let ssta_vs_mc_differential =
  QCheck.Test.make ~name:"ssta moments = montecarlo moments" ~count:8
    QCheck.(
      quad (int_range 0 9999) (int_range 3 5) (int_range 3 5) (int_range 0 2))
    (fun (seed, levels, width, knob) ->
      (* knob picks a (corner spread, mean shift, oracle domains)
         combination so the property sweeps domains 1/2/4 and several
         variation models without a larger tuple. *)
      let spread = [| 2.0; 3.0; 4.0 |].(knob) in
      let shift = [| -2.0; 0.0; 2.0 |].(knob) in
      let domains = [| 1; 2; 4 |].(knob) in
      check_differential ~seed ~levels ~width ~spread ~shift ~domains)

(* ---- Criticality is a probability distribution ---- *)

let criticality_sums_to_one =
  QCheck.Test.make ~name:"criticalities sum to 1 over the endpoint cut"
    ~count:25
    QCheck.(triple (int_range 0 9999) (int_range 3 6) (int_range 3 6))
    (fun (seed, levels, width) ->
      let n =
        Circuit.Generator.random_logic (Stats.Rng.create seed) ~levels ~width
      in
      let loads = Circuit.Loads.of_netlist env n in
      let t = Sta.Ssta.analyze env n ~loads (variation ~spread:3.0 ~shift:0.0) in
      let sum =
        List.fold_left
          (fun acc (e : Sta.Ssta.endpoint) -> acc +. e.Sta.Ssta.criticality)
          0.0 t.Sta.Ssta.endpoints
      in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            a.Sta.Ssta.criticality >= b.Sta.Ssta.criticality && sorted rest
        | [ _ ] | [] -> true
      in
      Float.abs (sum -. 1.0) < 1e-6
      && List.for_all
           (fun (e : Sta.Ssta.endpoint) ->
             e.Sta.Ssta.criticality >= -1e-12
             && e.Sta.Ssta.criticality <= 1.0 +. 1e-12)
           t.Sta.Ssta.endpoints
      && sorted t.Sta.Ssta.endpoints)

(* ---- Closed-form determinism across domains / cache ---- *)

let cheap_config = Identity_helpers.cheap_config

(* A 2x2 window keeps the extraction sweep cheap. *)
let window =
  { Timing_opc.Flow.dose_spread = 0.02; defocus_spread = 50.0; window_steps = 2 }

let base_run = lazy (Timing_opc.Flow.run (cheap_config ()) (Circuit.Generator.c17 ()))

let render = Identity_helpers.render_ssta

let test_ssta_bytes_stable_across_domains () =
  let r = Lazy.force base_run in
  let seq = Timing_opc.Flow.ssta ~window r in
  let p2 = with_pool 2 (fun pool -> Timing_opc.Flow.ssta ?pool ~window r) in
  let p4 = with_pool 4 (fun pool -> Timing_opc.Flow.ssta ?pool ~window r) in
  (* Structural equality on the float payloads is bit-identity. *)
  checkb "2 domains bit-identical" true
    (seq.Timing_opc.Flow.fit = p2.Timing_opc.Flow.fit
    && seq.Timing_opc.Flow.ssta = p2.Timing_opc.Flow.ssta);
  checkb "4 domains bit-identical" true
    (seq.Timing_opc.Flow.fit = p4.Timing_opc.Flow.fit
    && seq.Timing_opc.Flow.ssta = p4.Timing_opc.Flow.ssta);
  Alcotest.(check string) "rendered bytes" (render seq) (render p4)

(* A base run at 2 domains without the tile cache, swept without a
   pool, serves the same ssta bytes as the sequential cached run. *)
let test_ssta_bytes_stable_across_domains_and_cache () =
  let r = Lazy.force base_run in
  let alt_config =
    { (cheap_config ()) with Timing_opc.Flow.domains = 2; cache = false }
  in
  let alt = Timing_opc.Flow.run alt_config (Circuit.Generator.c17 ()) in
  let a = Timing_opc.Flow.ssta ~window r in
  let b = Timing_opc.Flow.ssta ~window alt in
  Alcotest.(check string) "domains/cache bytes" (render a) (render b);
  checkb "fit bit-identical" true (a.Timing_opc.Flow.fit = b.Timing_opc.Flow.fit);
  checkb "ssta bit-identical" true
    (a.Timing_opc.Flow.ssta = b.Timing_opc.Flow.ssta)

let () =
  Alcotest.run "ssta"
    [
      ( "gaussian",
        [
          Alcotest.test_case "cdf" `Quick test_gaussian_cdf;
          Alcotest.test_case "max moments" `Quick test_gaussian_max_moments;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "add exact" `Quick test_add_exact;
          Alcotest.test_case "cmax dominant" `Quick test_cmax_dominant;
          Alcotest.test_case "tightness complementary" `Quick
            test_tightness_complementary;
        ] );
      ( "clark-vs-sampled",
        [
          Alcotest.test_case "symmetric" `Quick test_clark_symmetric;
          Alcotest.test_case "skewed" `Quick test_clark_skewed;
          Alcotest.test_case "correlated" `Quick test_clark_correlated;
        ] );
      ( "window-fit",
        [
          Alcotest.test_case "recovers components" `Quick
            test_fit_recovers_components;
          Alcotest.test_case "rejects bad input" `Quick test_fit_rejects_bad_input;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest ssta_vs_mc_differential;
          QCheck_alcotest.to_alcotest criticality_sums_to_one;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "domains" `Slow test_ssta_bytes_stable_across_domains;
          Alcotest.test_case "domains and cache" `Slow
            test_ssta_bytes_stable_across_domains_and_cache;
        ] );
    ]
