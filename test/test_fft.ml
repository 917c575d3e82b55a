(* The FFT engine's contract: the transforms are mathematically exact
   (impulse/linearity/Parseval/round-trip at machine precision), both
   engines' aerial images meet a closed-form oracle within their own
   budgets across random layouts and defocus, the two engines agree on
   printed CD to sub-nm with per-engine calibration, all within the
   tolerance contract in DESIGN.md, and FFT images are bit-identical
   at any worker-domain count. *)

module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let check_eps what eps got = checkb (Printf.sprintf "%s <= %g (got %g)" what eps got) true (got <= eps)

(* ---- 1-D transform identities at sizes 8 / 32 / 128 ---- *)

let sizes = [ 8; 32; 128 ]

(* Deterministic pseudo-random signal: enough spectral spread to
   exercise every butterfly without depending on a seed API. *)
let signal n =
  Array.init n (fun i ->
      sin (float_of_int (i * i) *. 0.37) +. (0.5 *. cos (float_of_int i *. 1.91)))

let test_impulse () =
  List.iter
    (fun n ->
      let re = Array.make n 0.0 and im = Array.make n 0.0 in
      re.(0) <- 1.0;
      Litho.Fft.fft ~re ~im;
      (* The spectrum of a unit impulse is exactly 1 everywhere. *)
      Array.iteri
        (fun k r ->
          checkb (Printf.sprintf "n=%d re[%d]=1" n k) true (r = 1.0);
          checkb (Printf.sprintf "n=%d im[%d]=0" n k) true (im.(k) = 0.0))
        re)
    sizes

let test_linearity () =
  List.iter
    (fun n ->
      let x = signal n and y = Array.init n (fun i -> cos (float_of_int i *. 0.73)) in
      let a = 1.75 and b = -0.4 in
      let fft v =
        let re = Array.copy v and im = Array.make n 0.0 in
        Litho.Fft.fft ~re ~im;
        (re, im)
      in
      let xr, xi = fft x and yr, yi = fft y in
      let zr, zi = fft (Array.init n (fun i -> (a *. x.(i)) +. (b *. y.(i)))) in
      let err = ref 0.0 in
      for k = 0 to n - 1 do
        err := Float.max !err (Float.abs (zr.(k) -. ((a *. xr.(k)) +. (b *. yr.(k)))));
        err := Float.max !err (Float.abs (zi.(k) -. ((a *. xi.(k)) +. (b *. yi.(k)))))
      done;
      check_eps (Printf.sprintf "linearity n=%d" n) 1e-12 !err)
    sizes

let test_parseval () =
  List.iter
    (fun n ->
      let x = signal n in
      let re = Array.copy x and im = Array.make n 0.0 in
      Litho.Fft.fft ~re ~im;
      let space = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
      let freq = ref 0.0 in
      for k = 0 to n - 1 do
        freq := !freq +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
      done;
      let freq = !freq /. float_of_int n in
      check_eps (Printf.sprintf "parseval n=%d" n) 1e-10
        (Float.abs (space -. freq) /. space))
    sizes

let test_roundtrip () =
  List.iter
    (fun n ->
      let x = signal n in
      let re = Array.copy x and im = Array.make n 0.0 in
      Litho.Fft.fft ~re ~im;
      Litho.Fft.ifft ~re ~im;
      let err = ref 0.0 in
      for i = 0 to n - 1 do
        err := Float.max !err (Float.abs (re.(i) -. x.(i)));
        err := Float.max !err (Float.abs im.(i))
      done;
      check_eps (Printf.sprintf "roundtrip n=%d" n) 1e-12 !err)
    sizes

let test_roundtrip_2d () =
  let nx = 32 and ny = 8 in
  let x = signal (nx * ny) in
  let re = Array.copy x and im = Array.make (nx * ny) 0.0 in
  Litho.Fft.fft2 ~re ~im ~nx ~ny;
  Litho.Fft.ifft2 ~re ~im ~nx ~ny;
  let err = ref 0.0 in
  for i = 0 to (nx * ny) - 1 do
    err := Float.max !err (Float.abs (re.(i) -. x.(i)));
    err := Float.max !err (Float.abs im.(i))
  done;
  check_eps "2-D roundtrip" 1e-12 !err

(* ---- convolve_gaussians: impulse response vs the analytic kernel ---- *)

let test_convolve_impulse_analytic () =
  let n = 64 in
  let r = Litho.Raster.create ~origin:G.Point.origin ~step:1.0 ~nx:n ~ny:n in
  let c = n / 2 in
  Litho.Raster.set r c c 1.0;
  let kernels = [ (3.0, 0.8); (7.0, 0.2) ] in
  Litho.Fft.convolve_gaussians r ~kernels;
  (* By Poisson summation, the inverse DFT of the sampled analytic
     transfer exp(-2pi^2 s^2 f^2) is the continuous normalised
     Gaussian periodised at the padded extent. *)
  let g sigma d =
    let p = float_of_int n in
    let one x = exp (-.(x *. x) /. (2.0 *. sigma *. sigma)) /. (sigma *. sqrt (2.0 *. Float.pi)) in
    one d +. one (d +. p) +. one (d -. p)
  in
  let err = ref 0.0 in
  for iy = 0 to n - 1 do
    for ix = 0 to n - 1 do
      let dx = float_of_int (ix - c) and dy = float_of_int (iy - c) in
      let expect =
        List.fold_left
          (fun a (sigma, w) -> a +. (w *. g sigma dx *. g sigma dy))
          0.0 kernels
      in
      err := Float.max !err (Float.abs (Litho.Raster.get r ix iy -. expect))
    done
  done;
  check_eps "impulse vs analytic Gaussian" 1e-9 !err

(* ---- each engine against a closed-form oracle ---- *)

let model = lazy (Litho.Aerial.calibrate (Litho.Model.create ()) tech)

let model_fft = lazy (Litho.Aerial.calibrate ~engine:Litho.Aerial.Fft (Litho.Model.create ()) tech)

(* Intensity does not depend on dose, so the defocus range is the
   whole process window for these checks. *)
let conditions =
  List.map (fun defocus -> Litho.Condition.make ~dose:1.0 ~defocus) [ 0.0; 60.0; 120.0 ]

(* Random clusters of vertical lines — the poly-layer idiom the OPC
   and extraction layers feed the simulator. *)
let arb_lines =
  QCheck.make
    ~print:(fun ps ->
      String.concat ";" (List.map (Format.asprintf "%a" G.Polygon.pp) ps))
    QCheck.Gen.(
      let* n = int_range 1 3 in
      let* xs = list_repeat n (int_range 0 8) in
      let* ws = list_repeat n (int_range 8 16) in
      let* hs = list_repeat n (int_range 4 10) in
      return
        (List.mapi
           (fun i ((x, w), h) ->
             G.Polygon.of_rect
               (G.Rect.make
                  ~lx:((i * 300) + (x * 10))
                  ~ly:0
                  ~hx:((i * 300) + (x * 10) + (w * 10))
                  ~hy:(h * 100)))
           (List.combine (List.combine xs ws) hs)))

(* The model's intensity is linear in the mask: a weighted sum of
   Gaussian blurs.  The blur of a rectangle is separable, so for a mask
   of disjoint rectangles the intensity at (x, y) is exactly
     sum_k w_k sum_r [Phi((hx-x)/s_k) - Phi((lx-x)/s_k)]
                   * [Phi((hy-y)/s_k) - Phi((ly-y)/s_k)]
   for kernel sigmas s_k.  [sigma] picks s_k: the kernel's nominal
   sigma under defocus, or the sigma the direct engine's box cascade
   realises ({!Litho.Aerial.cascade_sigma_px}), which the FFT engine
   applies too. *)
let phi z = 0.5 *. (1.0 +. Float.erf (z /. Float.sqrt 2.0))

let nominal_sigma m (c : Litho.Condition.t) k =
  Litho.Model.effective_sigma m k ~defocus:c.Litho.Condition.defocus

let cascade_sigma (m : Litho.Model.t) c k =
  let step = m.Litho.Model.step in
  step *. Litho.Aerial.cascade_sigma_px (nominal_sigma m c k /. step)

let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1100 ~hy:700

(* Worst |engine - closed form| over the window proper: the halo
   fringe is discarded by every consumer (CD cutlines, pvband scans
   clip to the window) and carries the box-blur truncation edge.  The
   lines lie inside the simulated extent, so no shape is clipped. *)
let oracle_gap m engine ~sigma c polygons =
  let img = Litho.Aerial.simulate ~engine m c ~window polygons in
  let rects = List.map G.Polygon.bbox polygons in
  let kernels =
    List.map
      (fun (k : Litho.Model.kernel) -> (sigma m c k, k.Litho.Model.weight))
      m.Litho.Model.kernels
  in
  let across s lo hi v = phi ((float_of_int hi -. v) /. s) -. phi ((float_of_int lo -. v) /. s) in
  let exact x y =
    List.fold_left
      (fun acc (s, w) ->
        List.fold_left
          (fun acc (r : G.Rect.t) ->
            acc
            +. w
               *. across s r.G.Rect.lx r.G.Rect.hx x
               *. across s r.G.Rect.ly r.G.Rect.hy y)
          acc rects)
      0.0 kernels
  in
  let worst = ref 0.0 in
  for iy = 0 to Litho.Raster.ny img - 1 do
    for ix = 0 to Litho.Raster.nx img - 1 do
      let x = Litho.Raster.x_of_ix img ix and y = Litho.Raster.y_of_iy img iy in
      if x >= 0.0 && x <= 1100.0 && y >= 0.0 && y <= 700.0 then
        worst := Float.max !worst (Float.abs (Litho.Raster.get img ix iy -. exact x y))
    done
  done;
  !worst

(* Intensity budgets of the tolerance contract (DESIGN.md).  Over 250
   random layouts of [arb_lines] plus the line-end case below, at each
   condition, the worst gaps were 0.0004 (FFT, cascade sigma), 0.0313
   (direct, cascade sigma) and 0.0243 (direct, nominal sigma); the
   budgets round them up.  The FFT engine is the analytic Gaussian at
   the cascade sigma, so it meets that closed form to sampling and
   transform rounding.  The direct engine's box cascade has the right
   variance but not the Gaussian's shape; its gap peaks near line
   ends. *)
let fft_budget = 0.001

let direct_cascade_budget = 0.035

let direct_nominal_budget = 0.03

let within_budgets polygons =
  let m = Lazy.force model in
  List.for_all
    (fun c ->
      let check what budget gap =
        gap <= budget
        || QCheck.Test.fail_reportf "%s gap %.4f > %g at %a" what gap budget
             Litho.Condition.pp c
      in
      check "fft/cascade" fft_budget
        (oracle_gap m Litho.Aerial.Fft ~sigma:cascade_sigma c polygons)
      && check "direct/cascade" direct_cascade_budget
           (oracle_gap m Litho.Aerial.Direct ~sigma:cascade_sigma c polygons)
      && check "direct/nominal" direct_nominal_budget
           (oracle_gap m Litho.Aerial.Direct ~sigma:nominal_sigma c polygons))
    conditions

let prop_within_budgets =
  QCheck.Test.make ~name:"engines within budget of closed form" ~count:4 arb_lines
    within_budgets

(* Three short lines with one end on the window's y = 0 edge.  At
   defocus 120 nm the direct and FFT images differ here by 0.031, in
   the gap between the first two lines near their ends, which broke the
   0.03 budget the engines were once held to against each other.  The
   closed form shows the gap is the direct cascade's shape error, and
   each engine stays within its own budget. *)
let test_line_end_case () =
  let rect lx hx hy = G.Polygon.of_rect (G.Rect.make ~lx ~ly:0 ~hx ~hy) in
  checkb "line ends within budgets" true
    (within_budgets [ rect 80 220 900; rect 300 390 500; rect 670 750 400 ])

(* Printed CD of the centre line of a dense array, by bisection on the
   bilinear-sampled intensity against the condition's threshold. *)
let printed_cd m engine condition =
  let l = tech.Layout.Tech.gate_length in
  let pitch = tech.Layout.Tech.poly_pitch in
  let nlines = 9 and height = 2000 in
  let lines =
    List.init nlines (fun i ->
        let xc = pitch * i in
        G.Polygon.of_rect
          (G.Rect.make ~lx:(xc - (l / 2)) ~ly:0 ~hx:(xc + (l / 2)) ~hy:height))
  in
  let center = pitch * (nlines / 2) in
  let window =
    G.Rect.make ~lx:(center - pitch)
      ~ly:((height / 2) - 300)
      ~hx:(center + pitch)
      ~hy:((height / 2) + 300)
  in
  let img = Litho.Aerial.simulate ~engine m condition ~window lines in
  let th = Litho.Model.printed_threshold m condition in
  let y = float_of_int (height / 2) in
  let over x = Litho.Raster.sample img x y -. th in
  let crossing lo hi =
    (* [over lo > 0 >= over hi]: bisect to the printing edge. *)
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if over mid >= 0.0 then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  in
  let cx = float_of_int center and half = float_of_int pitch /. 2.0 in
  crossing cx (cx +. half) -. crossing cx (cx -. half)

(* The CD budget of the tolerance contract (DESIGN.md): with each
   engine centred by its own calibration and the FFT variance-matched
   to the cascade, the cross-engine CD delta on a production-like
   pattern stays under a nanometre across the extraction conditions
   (the flow's silicon window), and under 2.5 nm even at the extreme
   pvband corners where the threshold rides the shallow flank of a
   heavily defocused profile. *)
let cd_budget_inner_nm = 1.0

let cd_budget_corner_nm = 2.5

let test_cd_within_budget () =
  let delta c =
    let d = printed_cd (Lazy.force model) Litho.Aerial.Direct c in
    let f = printed_cd (Lazy.force model_fft) Litho.Aerial.Fft c in
    Float.abs (d -. f)
  in
  List.iter
    (fun c ->
      check_eps
        (Format.asprintf "inner CD delta @ %a" Litho.Condition.pp c)
        cd_budget_inner_nm (delta c))
    [
      Litho.Condition.nominal;
      Litho.Condition.make ~dose:1.015 ~defocus:70.0;
      Litho.Condition.make ~dose:1.02 ~defocus:70.0;
      Litho.Condition.make ~dose:0.98 ~defocus:40.0;
      Litho.Condition.make ~dose:0.95 ~defocus:0.0;
      Litho.Condition.make ~dose:1.05 ~defocus:0.0;
    ];
  List.iter
    (fun c ->
      check_eps
        (Format.asprintf "corner CD delta @ %a" Litho.Condition.pp c)
        cd_budget_corner_nm (delta c))
    (Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 120.0))

(* ---- determinism across worker domains ---- *)

let test_domains_bit_identical () =
  let m = Lazy.force model in
  let windows =
    List.init 4 (fun i ->
        let x = i mod 2 * 900 and y = i / 2 * 900 in
        G.Rect.make ~lx:x ~ly:y ~hx:(x + 900) ~hy:(y + 900))
  in
  let polygons =
    List.init 6 (fun i ->
        G.Polygon.of_rect
          (G.Rect.make ~lx:(i * 280) ~ly:100 ~hx:((i * 280) + 120) ~hy:1500))
  in
  let source w = List.filter (fun p -> G.Rect.inter (G.Polygon.bbox p) w <> None) polygons in
  let tile window =
    Litho.Aerial.simulate ~engine:Litho.Aerial.Fft m Litho.Condition.nominal
      ~window
      (source (G.Rect.inflate window m.Litho.Model.halo))
  in
  let seq = List.map tile windows in
  List.iter
    (fun domains ->
      let par =
        Exec.Pool.with_pool ~name:"test_fft" ~domains (fun p ->
            Exec.Pool.map_list p tile windows)
      in
      checkb
        (Printf.sprintf "fft tiles bit-identical at %d domains" domains)
        true
        (List.for_all2
           (fun a b -> Litho.Raster.unsafe_data a = Litho.Raster.unsafe_data b)
           seq par))
    [ 2; 4 ]

let () =
  Alcotest.run "fft"
    [
      ( "transform",
        [
          Alcotest.test_case "impulse" `Quick test_impulse;
          Alcotest.test_case "linearity" `Quick test_linearity;
          Alcotest.test_case "parseval" `Quick test_parseval;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip 2-D" `Quick test_roundtrip_2d;
          Alcotest.test_case "impulse vs analytic" `Quick test_convolve_impulse_analytic;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_within_budgets;
          Alcotest.test_case "line-end case within budgets" `Quick test_line_end_case;
          Alcotest.test_case "CD budget" `Slow test_cd_within_budget;
        ] );
      ( "determinism",
        [ Alcotest.test_case "domains 1/2/4" `Slow test_domains_bit_identical ] );
    ]
