module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---- Layer ---- *)

let test_layer_names () =
  List.iter
    (fun l ->
      match Layout.Layer.of_name (Layout.Layer.name l) with
      | Some l' -> checkb "roundtrip" true (Layout.Layer.equal l l')
      | None -> Alcotest.fail "name roundtrip failed")
    Layout.Layer.all;
  checkb "unknown" true (Layout.Layer.of_name "bogus" = None)

(* ---- Tech ---- *)

let test_tech_scale () =
  let t = Layout.Tech.scale tech ~num:1 ~den:2 in
  checki "gate length halves" 45 t.Layout.Tech.gate_length;
  checki "pitch halves" 175 t.Layout.Tech.poly_pitch

let test_tech_rules () =
  checki "poly width" tech.Layout.Tech.poly_min_width
    (Layout.Tech.min_width tech Layout.Layer.Poly);
  checkb "space positive" true (Layout.Tech.min_space tech Layout.Layer.Metal1 > 0)

(* ---- Stdcell ---- *)

let test_library_complete () =
  let lib = Layout.Stdcell.library tech in
  checkb "at least 13 cells" true (List.length lib >= 13);
  List.iter
    (fun name ->
      let c = Layout.Stdcell.find tech name in
      checkb "name matches" true (String.equal c.Layout.Cell.cname name))
    [ "INV_X1"; "NAND2_X1"; "NOR2_X1"; "XOR2_X1"; "DFF_X1"; "FILL1" ]

let test_inv_structure () =
  let c = Layout.Stdcell.find tech "INV_X1" in
  checki "two transistors" 2 (List.length c.Layout.Cell.transistors);
  let kinds = List.map (fun t -> t.Layout.Cell.kind) c.Layout.Cell.transistors in
  checkb "one N one P" true
    (List.mem Layout.Cell.Nmos kinds && List.mem Layout.Cell.Pmos kinds);
  List.iter
    (fun t ->
      checki "drawn L" tech.Layout.Tech.gate_length t.Layout.Cell.drawn_l;
      checkb "W positive" true (t.Layout.Cell.drawn_w > 0))
    c.Layout.Cell.transistors

let test_gate_inside_poly_and_active () =
  (* Drawn gates must be covered by both poly and active. *)
  List.iter
    (fun name ->
      let c = Layout.Stdcell.find tech name in
      let poly = G.Region.of_rects
          (List.concat_map
             (fun p -> G.Region.to_rects (G.Region.of_polygon p))
             (Layout.Cell.shapes_on c Layout.Layer.Poly))
      in
      let active = G.Region.of_rects
          (List.concat_map
             (fun p -> G.Region.to_rects (G.Region.of_polygon p))
             (Layout.Cell.shapes_on c Layout.Layer.Active))
      in
      List.iter
        (fun (t : Layout.Cell.transistor) ->
          let g = G.Region.of_rect t.Layout.Cell.gate in
          checkb "gate in poly" true
            (G.Region.area (G.Region.diff g poly) = 0);
          checkb "gate in active" true
            (G.Region.area (G.Region.diff g active) = 0))
        c.Layout.Cell.transistors)
    [ "INV_X1"; "NAND2_X1"; "NOR3_X1"; "XOR2_X1"; "DFF_X1" ]

let test_nand2_transistors () =
  let c = Layout.Stdcell.find tech "NAND2_X1" in
  checki "four devices" 4 (List.length c.Layout.Cell.transistors);
  checkb "MN1 exists" true (Layout.Cell.find_transistor c "MN1" <> None);
  checkb "MX9 absent" true (Layout.Cell.find_transistor c "MX9" = None)

let test_strapped_cells_bent () =
  let c = Layout.Stdcell.find tech "NOR2_X1" in
  checkb "has a bent gate" true
    (List.exists (fun t -> t.Layout.Cell.bent) c.Layout.Cell.transistors)

let test_filler () =
  let f = Layout.Stdcell.filler tech ~pitches:2 ~dummy_poly:false in
  checki "no transistors" 0 (List.length f.Layout.Cell.transistors);
  checki "no shapes" 0 (List.length f.Layout.Cell.shapes);
  let fd = Layout.Stdcell.filler tech ~pitches:2 ~dummy_poly:true in
  checki "dummy stripes" 2 (List.length fd.Layout.Cell.shapes)

let test_cells_drc_width () =
  (* Poly shapes in every cell respect min width. *)
  List.iter
    (fun (name, c) ->
      ignore name;
      let v = Layout.Drc.check_width tech Layout.Layer.Poly
          (Layout.Cell.shapes_on c Layout.Layer.Poly)
      in
      checki (c.Layout.Cell.cname ^ " poly width clean") 0 (List.length v))
    (Layout.Stdcell.library tech)

let test_cells_drc_spacing () =
  List.iter
    (fun (_, c) ->
      let v = Layout.Drc.check_spacing tech Layout.Layer.Poly
          (Layout.Cell.shapes_on c Layout.Layer.Poly)
      in
      checki (c.Layout.Cell.cname ^ " poly space clean") 0 (List.length v))
    (Layout.Stdcell.library tech)

(* ---- Chip / Placer ---- *)

let test_chip_add_duplicate () =
  let chip = Layout.Chip.create tech in
  let inv = Layout.Stdcell.find tech "INV_X1" in
  Layout.Chip.add chip ~iname:"u1" ~cell:inv G.Transform.identity;
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Chip.add: duplicate instance u1") (fun () ->
      Layout.Chip.add chip ~iname:"u1" ~cell:inv G.Transform.identity)

let test_chip_orientation_restriction () =
  let chip = Layout.Chip.create tech in
  let inv = Layout.Stdcell.find tech "INV_X1" in
  Alcotest.check_raises "R90 rejected"
    (Invalid_argument "Chip.add: only R0/MX placements are allowed") (fun () ->
      Layout.Chip.add chip ~iname:"u1" ~cell:inv
        (G.Transform.make ~orient:G.Transform.R90 G.Point.origin))

let test_chip_gates_transformed () =
  let chip = Layout.Chip.create tech in
  let inv = Layout.Stdcell.find tech "INV_X1" in
  Layout.Chip.add chip ~iname:"a" ~cell:inv
    (G.Transform.make (G.Point.make 1000 0));
  let gates = Layout.Chip.gates chip in
  checki "two gates" 2 (List.length gates);
  List.iter
    (fun (g : Layout.Chip.gate_ref) ->
      checkb "offset applied" true (g.Layout.Chip.gate.G.Rect.lx >= 1000))
    gates

let test_placer_rows () =
  let rng = Stats.Rng.create 1 in
  let cells = List.init 30 (fun i -> (Printf.sprintf "u%d" i, "INV_X1")) in
  let config = { Layout.Placer.default_config with Layout.Placer.row_width = 5000 } in
  let chip = Layout.Placer.place tech config rng cells in
  checkb "all placed" true (Layout.Chip.num_instances chip >= 30);
  match Layout.Chip.die chip with
  | Some die ->
      checkb "multiple rows" true
        (G.Rect.height die > tech.Layout.Tech.cell_height)
  | None -> Alcotest.fail "empty die"

let test_placer_deterministic () =
  let place seed =
    let rng = Stats.Rng.create seed in
    let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:20 in
    List.map
      (fun (i : Layout.Chip.instance) ->
        (i.Layout.Chip.iname, i.Layout.Chip.cell.Layout.Cell.cname))
      (Layout.Chip.instances chip)
  in
  checkb "same seed same block" true (place 9 = place 9);
  checkb "different seed differs" true (place 9 <> place 10)

let test_chip_flatten_and_index () =
  let rng = Stats.Rng.create 3 in
  let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:10 in
  let polys = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  checkb "poly shapes exist" true (polys <> []);
  match Layout.Chip.die chip with
  | Some die ->
      let via_index = Layout.Chip.shapes_in chip Layout.Layer.Poly die in
      checki "index finds all" (List.length polys) (List.length via_index)
  | None -> Alcotest.fail "empty die"

let test_chip_drc () =
  let rng = Stats.Rng.create 5 in
  let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:12 in
  let report = Layout.Drc.check_chip chip in
  checkb "shapes checked" true (report.Layout.Drc.checked > 0);
  checki "chip DRC clean" 0 (List.length report.Layout.Drc.violations)

let test_drc_catches_violation () =
  let narrow = [ G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:40 ~hy:40) ] in
  checkb "narrow poly flagged" true
    (Layout.Drc.check_width tech Layout.Layer.Poly narrow <> []);
  let close =
    [ G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:90 ~hy:1000);
      G.Polygon.of_rect (G.Rect.make ~lx:140 ~ly:0 ~hx:230 ~hy:1000) ]
  in
  checkb "tight space flagged" true
    (Layout.Drc.check_spacing tech Layout.Layer.Poly close <> [])

(* ---- Io ---- *)

let sample_shapes =
  [ (Layout.Layer.Poly, G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:90 ~hy:2000));
    (Layout.Layer.Metal1,
     G.Polygon.make
       [ G.Point.make 0 0; G.Point.make 200 0; G.Point.make 200 100;
         G.Point.make 100 100; G.Point.make 100 300; G.Point.make 0 300 ]) ]

let test_io_roundtrip () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Layout.Io.write_shapes ppf sample_shapes;
  Format.pp_print_flush ppf ();
  let back = Layout.Io.read_shapes (Buffer.contents buf) in
  checki "shape count" 2 (List.length back);
  List.iter2
    (fun (l1, p1) (l2, p2) ->
      checkb "layer" true (Layout.Layer.equal l1 l2);
      checkb "polygon" true (G.Polygon.equal p1 p2))
    sample_shapes back

let test_io_comments_and_blanks () =
  let text = "# a comment\n\npoly 0 0 90 0 90 2000 0 2000\n" in
  checki "one shape" 1 (List.length (Layout.Io.read_shapes text))

(* Every malformed line raises the documented [Failure "line N: ..."],
   never another exception. *)
let test_io_rejects_garbage () =
  let rejects what text =
    checkb what true
      (match Layout.Io.read_shapes text with
      | _ -> false
      | exception Failure msg -> String.starts_with ~prefix:"line 1: " msg)
  in
  rejects "unknown layer" "mystery 0 0 1 0 1 1 0 1";
  rejects "odd coords" "poly 0 0 90 0 90";
  rejects "non-rectilinear ring" "poly 0 0 90 0 90 100 10 100";
  rejects "degenerate ring" "poly 0 0 90 0 90 0 0 0"

let test_io_chip_dump () =
  let rng = Stats.Rng.create 8 in
  let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:3 in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Layout.Io.write_chip ppf chip;
  Format.pp_print_flush ppf ();
  let back = Layout.Io.read_shapes (Buffer.contents buf) in
  let expected =
    List.fold_left
      (fun acc layer -> acc + List.length (Layout.Chip.flatten_layer chip layer))
      0 Layout.Layer.all
  in
  checki "all shapes dumped" expected (List.length back)

let () =
  Alcotest.run "layout"
    [
      ("layer", [ Alcotest.test_case "names" `Quick test_layer_names ]);
      ( "tech",
        [
          Alcotest.test_case "scale" `Quick test_tech_scale;
          Alcotest.test_case "rules" `Quick test_tech_rules;
        ] );
      ( "stdcell",
        [
          Alcotest.test_case "library" `Quick test_library_complete;
          Alcotest.test_case "inverter" `Quick test_inv_structure;
          Alcotest.test_case "gates covered" `Quick test_gate_inside_poly_and_active;
          Alcotest.test_case "nand2" `Quick test_nand2_transistors;
          Alcotest.test_case "bent gates" `Quick test_strapped_cells_bent;
          Alcotest.test_case "filler" `Quick test_filler;
          Alcotest.test_case "width DRC" `Quick test_cells_drc_width;
          Alcotest.test_case "spacing DRC" `Quick test_cells_drc_spacing;
        ] );
      ( "chip",
        [
          Alcotest.test_case "duplicate" `Quick test_chip_add_duplicate;
          Alcotest.test_case "orientation" `Quick test_chip_orientation_restriction;
          Alcotest.test_case "gate transform" `Quick test_chip_gates_transformed;
          Alcotest.test_case "flatten/index" `Quick test_chip_flatten_and_index;
          Alcotest.test_case "chip DRC" `Quick test_chip_drc;
          Alcotest.test_case "DRC catches" `Quick test_drc_catches_violation;
        ] );
      ( "placer",
        [
          Alcotest.test_case "rows" `Quick test_placer_rows;
          Alcotest.test_case "deterministic" `Quick test_placer_deterministic;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "chip dump" `Quick test_io_chip_dump;
        ] );
    ]
