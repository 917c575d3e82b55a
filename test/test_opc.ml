module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let model = lazy (Litho.Aerial.calibrate (Litho.Model.create ()) tech)

let line = G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:90 ~hy:2000)

(* ---- Fragment ---- *)

let test_fragment_count () =
  let f = Fragment_helpers.fragment line 200 in
  (* 2000nm edges -> 10 fragments each; 90nm edges -> 1 each. *)
  checki "fragment count" 22 (List.length f.Opc.Fragment.fragments)

let test_fragment_line_end_kind () =
  let f = Fragment_helpers.fragment line 200 in
  let ends =
    List.filter (fun fr -> fr.Opc.Fragment.kind = Opc.Fragment.Line_end)
      f.Opc.Fragment.fragments
  in
  checki "two line-end caps" 2 (List.length ends)

let test_fragment_identity_reconstruction () =
  let f = Fragment_helpers.fragment line 200 in
  let rebuilt = Opc.Fragment.to_mask f in
  checkb "zero displacement reproduces polygon" true (G.Polygon.equal rebuilt line)

let test_fragment_uniform_bias_area () =
  let f = Fragment_helpers.fragment line 5000 in
  (* One fragment per edge; +5 bias everywhere = inflate by 5. *)
  List.iter (fun fr -> fr.Opc.Fragment.displacement <- 5) f.Opc.Fragment.fragments;
  let rebuilt = Opc.Fragment.to_mask f in
  checki "inflated area" ((90 + 10) * (2000 + 10)) (G.Polygon.area rebuilt)

let test_fragment_jog_insertion () =
  let f = Fragment_helpers.fragment line 1000 in
  (* Displace only one fragment of the left edge: creates jogs. *)
  (match
     List.find_opt
       (fun fr ->
         G.Edge.orientation fr.Opc.Fragment.edge = G.Edge.Vertical
         && fr.Opc.Fragment.kind = Opc.Fragment.Normal)
       f.Opc.Fragment.fragments
   with
  | Some fr -> fr.Opc.Fragment.displacement <- 8
  | None -> Alcotest.fail "no vertical fragment");
  let rebuilt = Opc.Fragment.to_mask f in
  checkb "vertex count grew" true
    (G.Polygon.num_vertices rebuilt > G.Polygon.num_vertices line);
  checkb "area grew" true (G.Polygon.area rebuilt > G.Polygon.area line)

let test_fragment_reset () =
  let f = Fragment_helpers.fragment line 200 in
  List.iter (fun fr -> fr.Opc.Fragment.displacement <- 7) f.Opc.Fragment.fragments;
  checki "max before" 7 (Opc.Fragment.max_displacement f);
  Opc.Fragment.reset f;
  checki "max after" 0 (Opc.Fragment.max_displacement f)

(* ---- Mask ---- *)

let test_mask_window_query () =
  let polys =
    List.init 5 (fun i ->
        G.Polygon.of_rect (G.Rect.make ~lx:(i * 1000) ~ly:0 ~hx:((i * 1000) + 90) ~hy:500))
  in
  let mask = Opc.Mask.of_polygons polys in
  checki "size" 5 (Opc.Mask.size mask);
  checki "window" 2
    (List.length (Opc.Mask.in_window mask (G.Rect.make ~lx:0 ~ly:0 ~hx:1100 ~hy:500)))

(* ---- Rule OPC ---- *)

let test_rule_bias_applied () =
  let recipe = Opc.Rule_opc.default_recipe tech in
  let mask = Opc.Rule_opc.correct recipe ~neighbours:(fun _ -> [ line ]) [ line ] in
  match Opc.Mask.polygons mask with
  | [ p ] ->
      checkb "area grew (outward bias)" true (G.Polygon.area p > G.Polygon.area line)
  | _ -> Alcotest.fail "expected one polygon"

let test_rule_space_to_neighbour () =
  let recipe = Opc.Rule_opc.default_recipe tech in
  let neighbour = G.Polygon.of_rect (G.Rect.make ~lx:350 ~ly:0 ~hx:440 ~hy:2000) in
  let f = Fragment_helpers.fragment line 5000 in
  let right_frag =
    List.find
      (fun fr -> G.Point.equal fr.Opc.Fragment.normal (G.Point.make 1 0))
      f.Opc.Fragment.fragments
  in
  let space =
    Opc.Rule_opc.space_to_neighbour ~probe:recipe.Opc.Rule_opc.probe
      ~neighbours:(fun _ -> [ line; neighbour ])
      right_frag ~self:line
  in
  checki "space measured" 260 space

let test_rule_dense_vs_iso_bias () =
  let recipe = Opc.Rule_opc.default_recipe tech in
  let neighbour = G.Polygon.of_rect (G.Rect.make ~lx:350 ~ly:0 ~hx:440 ~hy:2000) in
  let masked neighbours =
    match Opc.Mask.polygons (Opc.Rule_opc.correct recipe ~neighbours [ line ]) with
    | [ p ] -> G.Polygon.area p
    | _ -> Alcotest.fail "one polygon expected"
  in
  let dense = masked (fun _ -> [ line; neighbour ]) in
  let iso = masked (fun _ -> [ line ]) in
  checkb "iso gets more bias" true (iso > dense)

(* ---- Model OPC ---- *)

let opc_config = { (Opc.Model_opc.default_config tech) with Opc.Model_opc.iterations = 6 }

let test_model_opc_reduces_epe () =
  let m = Lazy.force model in
  let corrected, stats =
    Opc.Model_opc.correct m opc_config ~targets:[ line ] ~context:[]
  in
  checki "one polygon out" 1 (List.length corrected);
  checkb "rms small" true (stats.Opc.Model_opc.rms_epe < 3.0);
  checkb "sites measured" true (stats.Opc.Model_opc.sites > 10)

let test_model_opc_improves_cd () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-400) ~ly:800 ~hx:500 ~hy:1200 in
  let cd_of polys =
    let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window polys in
    Litho.Metrology.cd_horizontal img ~threshold:m.Litho.Model.threshold ~y:1000.0
      ~x_center:45.0 ~search:200.0
  in
  let corrected, _ = Opc.Model_opc.correct m opc_config ~targets:[ line ] ~context:[] in
  match (cd_of [ line ], cd_of corrected) with
  | Some before, Some after ->
      checkb "corrected closer to 90" true
        (Float.abs (after -. 90.0) <= Float.abs (before -. 90.0))
  | _ -> Alcotest.fail "feature did not print"

let test_model_opc_empty_targets () =
  let m = Lazy.force model in
  let corrected, stats = Opc.Model_opc.correct m opc_config ~targets:[] ~context:[] in
  checki "no polygons" 0 (List.length corrected);
  checki "no sites" 0 stats.Opc.Model_opc.sites

(* Three lines over a 2 x 2 grid of small sim tiles, so each pass has
   several stale tiles to spread over the pool. *)
let test_model_opc_pool_identical () =
  let m = Lazy.force model in
  let targets =
    List.map
      (fun (x, h) -> G.Polygon.of_rect (G.Rect.make ~lx:x ~ly:0 ~hx:(x + 90) ~hy:h))
      [ (0, 1400); (400, 900); (800, 1300) ]
  in
  let with_cache enabled f =
    Litho.Tile_cache.clear Litho.Tile_cache.global;
    f { m with Litho.Model.cache = enabled }
  in
  List.iter
    (fun (incremental, cache) ->
      let config =
        { opc_config with Opc.Model_opc.iterations = 3; incremental; sim_tile = 700 }
      in
      with_cache cache @@ fun m ->
      let correct ?pool () = Opc.Model_opc.correct ?pool m config ~targets ~context:[] in
      let polys, stats = correct () in
      List.iter
        (fun domains ->
          let polys', stats' =
            Exec.Pool.with_pool ~domains (fun pool -> correct ~pool ())
          in
          let label =
            Printf.sprintf "incremental %b, cache %b, %d domains" incremental cache
              domains
          in
          checkb (label ^ ": polygons") true (List.for_all2 G.Polygon.equal polys polys');
          checkb (label ^ ": stats") true (stats = stats'))
        [ 1; 2; 4 ])
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_merge_stats () =
  let s1 =
    { Opc.Model_opc.iterations_run = 3; max_epe = 5.0; rms_epe = 2.0; sites = 10; unresolved = 1 }
  in
  let s2 =
    { Opc.Model_opc.iterations_run = 5; max_epe = 3.0; rms_epe = 1.0; sites = 30; unresolved = 0 }
  in
  let m = Opc.Model_opc.merge_stats [ s1; s2 ] in
  checki "sites summed" 40 m.Opc.Model_opc.sites;
  checki "unresolved summed" 1 m.Opc.Model_opc.unresolved;
  Alcotest.(check (float 1e-9)) "max of max" 5.0 m.Opc.Model_opc.max_epe;
  checkb "rms between" true
    (m.Opc.Model_opc.rms_epe > 1.0 && m.Opc.Model_opc.rms_epe < 2.0)

(* ---- Chip OPC + ORC ---- *)

let small_chip () =
  let rng = Stats.Rng.create 17 in
  Layout.Placer.place tech
    { Layout.Placer.default_config with Layout.Placer.row_width = 4000 }
    rng
    [ ("u0", "INV_X1"); ("u1", "NAND2_X1"); ("u2", "NOR2_X1") ]

let test_chip_opc_none_identity () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let mask, stats = Opc.Chip_opc.correct m Opc.Chip_opc.None_ chip ~tile:4000 in
  checki "same shape count" (List.length (Layout.Chip.flatten_layer chip Layout.Layer.Poly))
    (Opc.Mask.size mask);
  checki "no sites" 0 stats.Opc.Model_opc.sites

let test_chip_opc_model_runs () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let mask, stats = Opc.Chip_opc.correct m (Opc.Chip_opc.Model opc_config) chip ~tile:4000 in
  checki "mask covers all shapes"
    (List.length (Layout.Chip.flatten_layer chip Layout.Layer.Poly))
    (Opc.Mask.size mask);
  checkb "sites measured" true (stats.Opc.Model_opc.sites > 0)

let test_orc_flags_uncorrected () =
  let m = Lazy.force model in
  let chip = small_chip () in
  let drawn = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  let window =
    match Layout.Chip.die chip with Some d -> d | None -> Alcotest.fail "die"
  in
  let cfg =
    { (Opc.Orc.default_config tech) with Opc.Orc.conditions = [ Litho.Condition.nominal ];
      epe_tolerance = 5.0 }
  in
  let rep_drawn =
    Opc.Orc.verify m cfg ~mask:(Opc.Mask.of_polygons drawn) ~drawn ~window
  in
  let corrected, _ = Opc.Chip_opc.correct m (Opc.Chip_opc.Model opc_config) chip ~tile:4000 in
  let rep_opc = Opc.Orc.verify m cfg ~mask:corrected ~drawn ~window in
  checkb "violations reduced by OPC" true
    (List.length rep_opc.Opc.Orc.violations < List.length rep_drawn.Opc.Orc.violations);
  (* Corner-rounding aliasing between control sites can leave isolated
     worse-than-drawn sites, so the max is not asserted — rms and the
     violation count are the ORC acceptance metrics. *)
  checkb "rms reduced" true (rep_opc.Opc.Orc.rms_epe < rep_drawn.Opc.Orc.rms_epe)

(* ---- SRAF ---- *)

let iso_tall = G.Polygon.of_rect (G.Rect.make ~lx:(-45) ~ly:0 ~hx:45 ~hy:3000)

let test_sraf_inserted_for_iso () =
  let cfg = Opc.Sraf.default_config tech in
  let bars = Opc.Sraf.insert cfg ~neighbours:(fun _ -> [ iso_tall ]) [ iso_tall ] in
  checki "one bar per long iso edge" 2 (List.length bars);
  List.iter
    (fun b ->
      let bb = G.Polygon.bbox b in
      checki "bar width" cfg.Opc.Sraf.bar_width (G.Rect.width bb))
    bars

let test_sraf_skipped_when_dense () =
  let cfg = Opc.Sraf.default_config tech in
  let neighbour = G.Polygon.of_rect (G.Rect.make ~lx:305 ~ly:0 ~hx:395 ~hy:3000) in
  let shapes = [ iso_tall; neighbour ] in
  let bars = Opc.Sraf.insert cfg ~neighbours:(fun _ -> shapes) [ iso_tall ] in
  (* The right edge faces a dense neighbour: only the left edge gets a bar. *)
  checki "only the iso side" 1 (List.length bars);
  List.iter
    (fun b -> checkb "bar on the left" true ((G.Polygon.bbox b).G.Rect.hx < -45))
    bars

let test_sraf_not_printing () =
  let m = Lazy.force model in
  let cfg = Opc.Sraf.default_config tech in
  let bars = Opc.Sraf.insert cfg ~neighbours:(fun _ -> [ iso_tall ]) [ iso_tall ] in
  let mask = iso_tall :: bars in
  let conditions =
    Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 150.0)
  in
  checki "no bar prints" 0
    (List.length (Opc.Sraf.verify_not_printing m conditions ~bars ~mask))

let test_sraf_improves_defocus_cd () =
  let m = Lazy.force model in
  let cfg = Opc.Sraf.default_config tech in
  let bars = Opc.Sraf.insert cfg ~neighbours:(fun _ -> [ iso_tall ]) [ iso_tall ] in
  let condition = Litho.Condition.make ~dose:1.0 ~defocus:120.0 in
  let cd polys =
    let window = G.Rect.make ~lx:(-400) ~ly:1200 ~hx:400 ~hy:1800 in
    let img = Litho.Aerial.simulate m condition ~window polys in
    Litho.Metrology.cd_horizontal img
      ~threshold:(Litho.Model.printed_threshold m condition)
      ~y:1500.0 ~x_center:0.0 ~search:250.0
  in
  match (cd [ iso_tall ], cd (iso_tall :: bars)) with
  | Some bare, Some assisted ->
      checkb "assisted CD closer to drawn" true
        (Float.abs (assisted -. 90.0) < Float.abs (bare -. 90.0))
  | _ -> Alcotest.fail "feature did not print"

let () =
  Alcotest.run "opc"
    [
      ( "fragment",
        [
          Alcotest.test_case "count" `Quick test_fragment_count;
          Alcotest.test_case "line ends" `Quick test_fragment_line_end_kind;
          Alcotest.test_case "identity" `Quick test_fragment_identity_reconstruction;
          Alcotest.test_case "uniform bias" `Quick test_fragment_uniform_bias_area;
          Alcotest.test_case "jogs" `Quick test_fragment_jog_insertion;
          Alcotest.test_case "reset" `Quick test_fragment_reset;
        ] );
      ("mask", [ Alcotest.test_case "window" `Quick test_mask_window_query ]);
      ( "rule-opc",
        [
          Alcotest.test_case "bias applied" `Quick test_rule_bias_applied;
          Alcotest.test_case "space" `Quick test_rule_space_to_neighbour;
          Alcotest.test_case "dense vs iso" `Quick test_rule_dense_vs_iso_bias;
        ] );
      ( "model-opc",
        [
          Alcotest.test_case "reduces EPE" `Slow test_model_opc_reduces_epe;
          Alcotest.test_case "improves CD" `Slow test_model_opc_improves_cd;
          Alcotest.test_case "empty" `Quick test_model_opc_empty_targets;
          Alcotest.test_case "pool identical" `Slow test_model_opc_pool_identical;
          Alcotest.test_case "merge stats" `Quick test_merge_stats;
        ] );
      ( "chip-opc",
        [
          Alcotest.test_case "identity" `Quick test_chip_opc_none_identity;
          Alcotest.test_case "model runs" `Slow test_chip_opc_model_runs;
          Alcotest.test_case "ORC improves" `Slow test_orc_flags_uncorrected;
        ] );
      ( "sraf",
        [
          Alcotest.test_case "inserted for iso" `Quick test_sraf_inserted_for_iso;
          Alcotest.test_case "skipped when dense" `Quick test_sraf_skipped_when_dense;
          Alcotest.test_case "not printing" `Slow test_sraf_not_printing;
          Alcotest.test_case "defocus CD" `Slow test_sraf_improves_defocus_cd;
        ] );
    ]
