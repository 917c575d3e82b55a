module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let checkf eps msg a b = Alcotest.(check (float eps)) msg a b

(* Calibrated model shared by the suite (calibration itself is a test). *)
let model = lazy (Litho.Aerial.calibrate (Litho.Model.create ()) tech)

(* ---- Condition ---- *)

let test_condition_grid () =
  let g =
    Litho.Condition.grid ~dose_range:(0.95, 1.05) ~dose_steps:3
      ~defocus_range:(0.0, 100.0) ~defocus_steps:3
  in
  Alcotest.(check int) "9 conditions" 9 (List.length g);
  checkb "contains nominal dose" true
    (List.exists (fun c -> c.Litho.Condition.dose = 1.0) g)

let test_condition_corners () =
  let cs = Litho.Condition.corners ~dose_range:(0.9, 1.1) ~defocus_range:(0.0, 150.0) in
  Alcotest.(check int) "nominal + 4" 5 (List.length cs)

let test_condition_invalid () =
  Alcotest.check_raises "zero dose" (Invalid_argument "Condition.make: dose must be positive")
    (fun () -> ignore (Litho.Condition.make ~dose:0.0 ~defocus:0.0))

(* A NaN or infinite dose or defocus would blur with a non-finite
   width; NaN also passes the [dose <= 0] test. *)
let test_condition_non_finite () =
  List.iter
    (fun (what, dose, defocus) ->
      Alcotest.check_raises what
        (Invalid_argument "Condition.make: dose and defocus must be finite")
        (fun () -> ignore (Litho.Condition.make ~dose ~defocus)))
    [ ("infinite dose", infinity, 70.0);
      ("NaN dose", nan, 70.0);
      ("NaN defocus", 1.02, nan);
      ("infinite defocus", 1.02, infinity);
      ("negative infinite defocus", 1.02, neg_infinity) ]

(* The model's halo is sized for a worst-case defocus; a condition
   beyond it is refused, and the halo covers 3 sigma of the widest
   kernel at the bound itself. *)
let test_condition_defocus_bound () =
  let bound = Litho.Condition.max_defocus in
  List.iter
    (fun defocus -> ignore (Litho.Condition.make ~dose:1.0 ~defocus))
    [ bound; -.bound; 0.0 ];
  List.iter
    (fun defocus ->
      Alcotest.check_raises (Printf.sprintf "defocus %g" defocus)
        (Invalid_argument "Condition.make: |defocus| must be at most 200 nm")
        (fun () -> ignore (Litho.Condition.make ~dose:1.0 ~defocus)))
    [ bound +. 0.5; -.bound -. 0.5; 5000.0; 1e8 ];
  let m = Litho.Model.create () in
  let widest =
    List.fold_left
      (fun acc k ->
        Float.max acc (Litho.Model.effective_sigma m k ~defocus:bound))
      0.0 m.Litho.Model.kernels
  in
  checkb "halo covers 3 sigma at the bound" true
    (float_of_int m.Litho.Model.halo >= 3.0 *. widest)

(* ---- Raster ---- *)

let test_raster_paint_coverage () =
  let r = Raster_helpers.raster_100 () in
  (* Rect covering exactly 4 pixels fully. *)
  Litho.Raster.paint_rect r (G.Rect.make ~lx:10 ~ly:10 ~hx:20 ~hy:20);
  checkf 1e-9 "full pixel" 1.0 (Litho.Raster.get r 2 2);
  checkf 1e-9 "outside" 0.0 (Litho.Raster.get r 7 7)

let test_raster_paint_subpixel () =
  let r = Raster_helpers.raster_100 () in
  (* Half-pixel-wide rect: coverage 0.5. *)
  Litho.Raster.paint_rect r (G.Rect.make ~lx:10 ~ly:10 ~hx:12 ~hy:15);
  checkf 1e-9 "fractional coverage" (2.0 /. 5.0 *. 1.0) (Litho.Raster.get r 2 2)

let test_raster_total_mass () =
  let r = Raster_helpers.raster_100 () in
  let rect = G.Rect.make ~lx:7 ~ly:13 ~hx:44 ~hy:61 in
  Litho.Raster.paint_rect r rect;
  let total = ref 0.0 in
  for iy = 0 to Litho.Raster.ny r - 1 do
    for ix = 0 to Litho.Raster.nx r - 1 do
      total := !total +. Litho.Raster.get r ix iy
    done
  done;
  (* Mass in pixel units: area / step^2. *)
  checkf 1e-6 "mass conserved"
    (float_of_int (G.Rect.area rect) /. 25.0)
    !total

let test_raster_sample_bilinear () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 2 2 1.0;
  (* Sampling exactly at the pixel centre returns the value. *)
  checkf 1e-9 "at centre" 1.0 (Litho.Raster.sample r 12.5 12.5);
  (* Halfway to the next (zero) pixel centre: 0.5. *)
  checkf 1e-9 "halfway" 0.5 (Litho.Raster.sample r 15.0 12.5)

(* ---- Blur ---- *)

let test_box_sizes_variance () =
  (* Iterated box variance should match the Gaussian within a pixel. *)
  let sigma = 9.0 in
  let sizes = Litho.Blur.box_sizes ~sigma ~passes:3 in
  let var =
    Array.fold_left
      (fun acc w -> acc +. (float_of_int ((w * w) - 1) /. 12.0))
      0.0 sizes
  in
  checkb "variance close" true (Float.abs (var -. (sigma *. sigma)) < 2.0 *. sigma)

(* The blur alone: [dst + weight * G(src)] into a zero destination at
   weight 1. *)
let blurred r ~sigma_px =
  let dst = Litho.Raster.like r in
  Litho.Blur.accumulate (Litho.Blur.work ()) ~src:r ~dst ~sigma_px ~weight:1.0;
  dst

let test_blur_conserves_mass () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 10 10 100.0;
  let r = blurred r ~sigma_px:2.0 in
  let total = ref 0.0 in
  for iy = 0 to Litho.Raster.ny r - 1 do
    for ix = 0 to Litho.Raster.nx r - 1 do
      total := !total +. Litho.Raster.get r ix iy
    done
  done;
  (* Zero padding loses only the tail beyond the border. *)
  checkb "mass approximately conserved" true (Float.abs (!total -. 100.0) < 1.0)

let test_blur_spreads () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 10 10 1.0;
  let r = blurred r ~sigma_px:1.5 in
  checkb "peak reduced" true (Litho.Raster.get r 10 10 < 1.0);
  checkb "neighbour raised" true (Litho.Raster.get r 11 10 > 0.0)

let test_blur_identity_for_tiny_sigma () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 5 5 1.0;
  let r = blurred r ~sigma_px:0.1 in
  checkf 1e-9 "untouched" 1.0 (Litho.Raster.get r 5 5)

(* The cascade [Blur.accumulate] replaced: blit the source into a
   scratch raster, blur it one row and then one column at a time (each
   vertical pass walks one column with a stride of nx floats), and add
   the weighted scratch into the destination in a separate pass.  Kept
   here as the bit-identity reference for the fused step. *)
let reference_box_h data nx ny w =
  if w > 1 then begin
    let r = (w - 1) / 2 in
    let inv = 1.0 /. float_of_int w in
    let tmp = Array.make nx 0.0 in
    for iy = 0 to ny - 1 do
      let row = iy * nx in
      let acc = ref 0.0 in
      for ix = 0 to min (nx - 1) r do
        acc := !acc +. data.(row + ix)
      done;
      for ix = 0 to nx - 1 do
        tmp.(ix) <- !acc *. inv;
        let enter = ix + r + 1 and leave = ix - r in
        if enter < nx then acc := !acc +. data.(row + enter);
        if leave >= 0 then acc := !acc -. data.(row + leave)
      done;
      Array.blit tmp 0 data row nx
    done
  end

let reference_box_v data nx ny w =
  if w > 1 then begin
    let r = (w - 1) / 2 in
    let inv = 1.0 /. float_of_int w in
    let tmp = Array.make ny 0.0 in
    for ix = 0 to nx - 1 do
      let acc = ref 0.0 in
      for iy = 0 to min (ny - 1) r do
        acc := !acc +. data.((iy * nx) + ix)
      done;
      for iy = 0 to ny - 1 do
        tmp.(iy) <- !acc *. inv;
        let enter = iy + r + 1 and leave = iy - r in
        if enter < ny then acc := !acc +. data.((enter * nx) + ix);
        if leave >= 0 then acc := !acc -. data.((leave * nx) + ix)
      done;
      for iy = 0 to ny - 1 do
        data.((iy * nx) + ix) <- tmp.(iy)
      done
    done
  end

let reference_accumulate ~src ~dst ~sigma_px ~weight =
  let nx = Litho.Raster.nx src and ny = Litho.Raster.ny src in
  let scratch = Litho.Raster.like src in
  let data = Litho.Raster.unsafe_data scratch in
  Array.blit (Litho.Raster.unsafe_data src) 0 data 0 (nx * ny);
  if sigma_px > 0.25 then begin
    let sizes = Litho.Blur.box_sizes ~sigma:sigma_px ~passes:3 in
    Array.iter (fun w -> reference_box_h data nx ny w) sizes;
    Array.iter (fun w -> reference_box_v data nx ny w) sizes
  end;
  let d = Litho.Raster.unsafe_data dst in
  for i = 0 to (nx * ny) - 1 do
    d.(i) <- d.(i) +. (weight *. data.(i))
  done

(* Bitwise, so that a -0.0 in place of a 0.0 (or one NaN for another)
   is a difference. *)
let same_bits a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    (Litho.Raster.unsafe_data a) (Litho.Raster.unsafe_data b)

type blur_case = {
  nx : int;
  ny : int;
  empty_share : float;  (** chance that a row is zero throughout *)
  repeat_share : float;  (** chance that a row repeats an earlier row *)
  specials : bool;  (** some rows hold a NaN or an infinity *)
  sigma_px : float;
  weight : float;
  prefilled : bool;  (** destination holds random values, not zeros *)
  seed : int;
}

(* Sizes lean small so that one-column rasters and rasters no taller
   than the box radius come up in every run, and widths of 5-7 and
   9-11 leave one to three columns past the last group of four.
   Sigmas at or below a quarter pixel are the identity, and those up
   to 1.5 px give widths of 1 beside widths of 3. *)
let arb_blur_case =
  let open QCheck.Gen in
  let size = oneof [ int_range 1 4; int_range 1 64 ] in
  let gen =
    let* nx = oneof [ size; int_range 5 7; int_range 9 11 ] and* ny = size in
    let* empty_share = oneofl [ 0.0; 0.5; 1.0 ] in
    let* repeat_share = oneofl [ 0.0; 0.5; 0.9 ] and* specials = map (( = ) 0) (int_bound 3) in
    let* sigma_px =
      oneof [ float_range 0.0 0.25; float_range 0.25 1.5; float_range 0.3 40.0 ]
    in
    let* weight = oneof [ return 1.0; float_range (-2.0) 2.0 ] in
    let+ prefilled = bool and+ seed = int_bound 1_000_000 in
    { nx; ny; empty_share; repeat_share; specials; sigma_px; weight; prefilled; seed }
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf
        "nx=%d ny=%d empty_share=%g repeat_share=%g specials=%b sigma_px=%h weight=%h \
         prefilled=%b seed=%d"
        c.nx c.ny c.empty_share c.repeat_share c.specials c.sigma_px c.weight c.prefilled
        c.seed)
    gen

(* A source row is zero throughout (a random mix of +0.0 and -0.0),
   sparse (one to three nonzero pixels at random columns, the rest
   +0.0), dense (mask-like plateaus, zeros and signed noise), or a
   repeat.  A repeat copies the row above, or now and then the row two
   above, so that a row can equal the row two above but not the one
   between; half the repeats negate every zero and NaN of the copy, so
   they equal the original under [=] only where no NaN is held.  With
   [specials], a quarter of the non-repeat rows hold a NaN, +infinity
   or -infinity at a random column. *)
let blur_case_rasters c =
  let rng = Random.State.make [| c.seed |] in
  let src = Litho.Raster.create ~origin:G.Point.origin ~step:5.0 ~nx:c.nx ~ny:c.ny in
  for iy = 0 to c.ny - 1 do
    if iy > 0 && Random.State.float rng 1.0 < c.repeat_share then begin
      let from = if iy > 1 && Random.State.int rng 4 = 0 then iy - 2 else iy - 1 in
      let negate = Random.State.bool rng in
      for ix = 0 to c.nx - 1 do
        let v = Litho.Raster.get src ix from in
        Litho.Raster.set src ix iy (if negate && (v = 0.0 || Float.is_nan v) then -.v else v)
      done
    end
    else begin
      if Random.State.float rng 1.0 < c.empty_share then
        for ix = 0 to c.nx - 1 do
          Litho.Raster.set src ix iy (if Random.State.bool rng then 0.0 else -0.0)
        done
      else if Random.State.bool rng then
        for _ = 1 to 1 + Random.State.int rng 3 do
          Litho.Raster.set src (Random.State.int rng c.nx) iy
            (Random.State.float rng 2.0 -. 1.0)
        done
      else
        for ix = 0 to c.nx - 1 do
          let v =
            match Random.State.int rng 3 with
            | 0 -> 1.0
            | 1 -> 0.0
            | _ -> Random.State.float rng 2.0 -. 1.0
          in
          Litho.Raster.set src ix iy v
        done;
      if c.specials && Random.State.int rng 4 = 0 then
        Litho.Raster.set src (Random.State.int rng c.nx) iy
          [| Float.nan; Float.infinity; Float.neg_infinity |].(Random.State.int rng 3)
    end
  done;
  let dst = Litho.Raster.like src in
  if c.prefilled then
    for iy = 0 to c.ny - 1 do
      for ix = 0 to c.nx - 1 do
        Litho.Raster.set dst ix iy (Random.State.float rng 2.0 -. 1.0)
      done
    done;
  (src, dst)

(* One work serves every case, so its arrays hold what earlier, often
   larger, cases left in them. *)
let prop_blur_matches_reference =
  let work = Litho.Blur.work () in
  QCheck.Test.make ~name:"gaussian = column-at-a-time reference" ~count:300
    arb_blur_case (fun c ->
      let src, dst = blur_case_rasters c in
      let expected = Litho.Raster.copy dst and before = Litho.Raster.copy src in
      Litho.Blur.accumulate work ~src ~dst ~sigma_px:c.sigma_px ~weight:c.weight;
      reference_accumulate ~src:before ~dst:expected ~sigma_px:c.sigma_px
        ~weight:c.weight;
      same_bits dst expected && same_bits src before)

(* ---- Model / Aerial ---- *)

let test_calibration_prints_on_target () =
  let m = Lazy.force model in
  checkb "threshold in range" true
    (m.Litho.Model.threshold > 0.2 && m.Litho.Model.threshold < 0.8);
  (* Dense array prints at drawn CD by construction. *)
  let l = tech.Layout.Tech.gate_length and pitch = tech.Layout.Tech.poly_pitch in
  let lines =
    List.init 9 (fun i ->
        G.Polygon.of_rect
          (G.Rect.make ~lx:((pitch * i) - (l / 2)) ~ly:0 ~hx:((pitch * i) + (l / 2)) ~hy:4000))
  in
  let window = G.Rect.make ~lx:(pitch * 3) ~ly:1500 ~hx:(pitch * 5) ~hy:2500 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window lines in
  match
    Litho.Metrology.cd_horizontal img ~threshold:m.Litho.Model.threshold ~y:2000.0
      ~x_center:(float_of_int (pitch * 4)) ~search:200.0
  with
  | Some cd -> checkf 0.5 "dense CD = drawn" (float_of_int l) cd
  | None -> Alcotest.fail "line did not print"

let line_cd ?(conditions = Litho.Condition.nominal) polygons x =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(x - 400) ~ly:1500 ~hx:(x + 400) ~hy:2500 in
  let img = Litho.Aerial.simulate m conditions ~window polygons in
  Litho.Metrology.cd_horizontal img
    ~threshold:(Litho.Model.printed_threshold m conditions)
    ~y:2000.0 ~x_center:(float_of_int x) ~search:200.0

let iso_line =
  [ G.Polygon.of_rect (G.Rect.make ~lx:(-45) ~ly:0 ~hx:45 ~hy:4000) ]

let test_iso_dense_bias () =
  let dense =
    List.init 9 (fun i ->
        G.Polygon.of_rect
          (G.Rect.make ~lx:((350 * (i - 4)) - 45) ~ly:0 ~hx:((350 * (i - 4)) + 45) ~hy:4000))
  in
  match (line_cd dense 0, line_cd iso_line 0) with
  | Some cd_dense, Some cd_iso ->
      checkb "proximity changes CD" true (Float.abs (cd_dense -. cd_iso) > 0.5)
  | _ -> Alcotest.fail "features did not print"

let test_dose_monotonic () =
  let cd_at dose =
    match line_cd ~conditions:(Litho.Condition.make ~dose ~defocus:0.0) iso_line 0 with
    | Some cd -> cd
    | None -> Alcotest.fail "no print"
  in
  checkb "higher dose widens" true (cd_at 1.05 > cd_at 1.0);
  checkb "lower dose narrows" true (cd_at 0.95 < cd_at 1.0)

let test_defocus_shrinks () =
  let cd_at defocus =
    match line_cd ~conditions:(Litho.Condition.make ~dose:1.0 ~defocus) iso_line 0 with
    | Some cd -> cd
    | None -> Alcotest.fail "no print"
  in
  checkb "defocus shrinks line" true (cd_at 150.0 < cd_at 0.0)

let test_line_end_pullback () =
  let m = Lazy.force model in
  (* A line ending at y = 2000: the printed end pulls back. *)
  let lines = [ G.Polygon.of_rect (G.Rect.make ~lx:(-45) ~ly:0 ~hx:45 ~hy:2000) ] in
  let window = G.Rect.make ~lx:(-400) ~ly:1200 ~hx:400 ~hy:2600 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window lines in
  match
    Litho.Metrology.edge_from img ~threshold:m.Litho.Model.threshold ~x:0.0 ~y:1500.0
      ~dx:0.0 ~dy:1.0 ~search:600.0
  with
  | Some d ->
      let printed_end = 1500.0 +. d in
      checkb "end pulls back" true (printed_end < 2000.0);
      checkb "pullback sane (< 120nm)" true (2000.0 -. printed_end < 120.0)
  | None -> Alcotest.fail "no line end found"

(* A direct simulation is the mask plus each kernel's reference blur,
   added in kernel order, bit for bit: on its own buffers, and on
   caller-owned ones that every simulation of the window reuses. *)
let test_direct_matches_reference () =
  let m = Litho.Model.create ~cache:false () in
  let rng = Random.State.make [| 2005 |] in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:400 ~hy:300 in
  let into = Litho.Aerial.buffers m ~window in
  for layout = 1 to 3 do
    let polygons =
      List.init (1 + Random.State.int rng 6) (fun _ ->
          let lx = Random.State.int rng 600 - 100 and ly = Random.State.int rng 500 - 100 in
          G.Polygon.of_rect
            (G.Rect.make ~lx ~ly
               ~hx:(lx + 10 + Random.State.int rng 200)
               ~hy:(ly + 10 + Random.State.int rng 200)))
    in
    List.iter
      (fun defocus ->
        let condition = Litho.Condition.make ~dose:1.0 ~defocus in
        let mask = Litho.Aerial.mask_raster m ~window polygons in
        let expected = Litho.Raster.like mask in
        List.iter
          (fun (k : Litho.Model.kernel) ->
            reference_accumulate ~src:mask ~dst:expected
              ~sigma_px:(Litho.Model.effective_sigma m k ~defocus /. m.Litho.Model.step)
              ~weight:k.Litho.Model.weight)
          m.Litho.Model.kernels;
        let what = Printf.sprintf "layout %d, defocus %g nm" layout defocus in
        checkb what true (same_bits (Litho.Aerial.simulate m condition ~window polygons) expected);
        checkb (what ^ ", into") true
          (same_bits (Litho.Aerial.simulate ~into m condition ~window polygons) expected))
      [ 0.0; 70.0; 200.0 ]
  done

let test_mask_raster_clamped () =
  let m = Lazy.force model in
  (* Two overlapping rects must not exceed coverage 1. *)
  let shapes =
    [ G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:200 ~hy:200);
      G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:200 ~hy:200) ]
  in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:200 ~hy:200 in
  let mask = Litho.Aerial.mask_raster m ~window shapes in
  checkb "clamped" true (Litho.Raster.max_value mask <= 1.0 +. 1e-9)

(* ---- Metrology ---- *)

let test_epe_sign () =
  let m = Lazy.force model in
  (* Narrow mask: prints narrower than a wide target edge -> negative EPE. *)
  let mask = [ G.Polygon.of_rect (G.Rect.make ~lx:(-35) ~ly:0 ~hx:35 ~hy:4000) ] in
  let window = G.Rect.make ~lx:(-400) ~ly:1500 ~hx:400 ~hy:2500 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window mask in
  (* Target edge at x = 45 (as if drawn 90nm), outward normal +x. *)
  match
    Litho.Metrology.epe img ~threshold:m.Litho.Model.threshold ~x:45.0 ~y:2000.0
      ~nx:1.0 ~ny:0.0 ~search:100.0
  with
  | Some e -> checkb "pullback negative" true (e < 0.0)
  | None -> Alcotest.fail "no edge"

let test_cd_not_printed () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-200) ~ly:0 ~hx:200 ~hy:400 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window [] in
  checkb "empty mask: no CD" true
    (Litho.Metrology.cd_horizontal img ~threshold:0.5 ~y:200.0 ~x_center:0.0
       ~search:100.0
    = None)

(* ---- PV band ---- *)

let test_pvband_ordering () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-300) ~ly:1500 ~hx:300 ~hy:2500 in
  let conditions =
    Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 120.0)
  in
  let pv = Litho.Pvband.compute m conditions ~window iso_line in
  checkb "inner <= outer" true (pv.Litho.Pvband.inner_area <= pv.Litho.Pvband.outer_area);
  checkb "band positive" true (pv.Litho.Pvband.band_area > 0.0);
  checkb "inner positive" true (pv.Litho.Pvband.inner_area > 0.0)

let test_pvband_single_condition_zero_band () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-300) ~ly:1500 ~hx:300 ~hy:2500 in
  let pv = Litho.Pvband.compute m [ Litho.Condition.nominal ] ~window iso_line in
  checkf 1e-9 "no band with one condition" 0.0 pv.Litho.Pvband.band_area

let () =
  Alcotest.run "litho"
    [
      ( "condition",
        [
          Alcotest.test_case "grid" `Quick test_condition_grid;
          Alcotest.test_case "corners" `Quick test_condition_corners;
          Alcotest.test_case "invalid" `Quick test_condition_invalid;
          Alcotest.test_case "non-finite" `Quick test_condition_non_finite;
          Alcotest.test_case "defocus bound" `Quick test_condition_defocus_bound;
        ] );
      ( "raster",
        [
          Alcotest.test_case "paint coverage" `Quick test_raster_paint_coverage;
          Alcotest.test_case "subpixel" `Quick test_raster_paint_subpixel;
          Alcotest.test_case "mass" `Quick test_raster_total_mass;
          Alcotest.test_case "bilinear" `Quick test_raster_sample_bilinear;
        ] );
      ( "blur",
        [
          Alcotest.test_case "box sizes" `Quick test_box_sizes_variance;
          Alcotest.test_case "mass" `Quick test_blur_conserves_mass;
          Alcotest.test_case "spreads" `Quick test_blur_spreads;
          Alcotest.test_case "tiny sigma" `Quick test_blur_identity_for_tiny_sigma;
          QCheck_alcotest.to_alcotest prop_blur_matches_reference;
        ] );
      ( "aerial",
        [
          Alcotest.test_case "calibration" `Slow test_calibration_prints_on_target;
          Alcotest.test_case "iso-dense" `Slow test_iso_dense_bias;
          Alcotest.test_case "dose" `Slow test_dose_monotonic;
          Alcotest.test_case "defocus" `Slow test_defocus_shrinks;
          Alcotest.test_case "line end" `Slow test_line_end_pullback;
          Alcotest.test_case "direct = reference cascade" `Quick
            test_direct_matches_reference;
          Alcotest.test_case "mask clamp" `Quick test_mask_raster_clamped;
        ] );
      ( "metrology",
        [
          Alcotest.test_case "epe sign" `Slow test_epe_sign;
          Alcotest.test_case "not printed" `Quick test_cd_not_printed;
        ] );
      ( "pvband",
        [
          Alcotest.test_case "ordering" `Slow test_pvband_ordering;
          Alcotest.test_case "single condition" `Slow test_pvband_single_condition_zero_band;
        ] );
    ]
