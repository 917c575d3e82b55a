(* Lithography playground: the substrate in isolation.

     dune exec examples/litho_playground.exe

   Prints the classic litho curves on simple test structures: CD
   through pitch, CD through dose/focus, line-end pullback, and what
   model-based OPC does to each — no netlist or placement involved. *)

module G = Geometry

let tech = Layout.Tech.node90

let model = Litho.Aerial.calibrate (Litho.Model.create ()) tech

let line ?(w = tech.Layout.Tech.gate_length) x =
  G.Polygon.of_rect (G.Rect.make ~lx:(x - (w / 2)) ~ly:0 ~hx:(x + (w / 2)) ~hy:4000)

let cd_of ?(condition = Litho.Condition.nominal) polygons x =
  let window = G.Rect.make ~lx:(x - 500) ~ly:1500 ~hx:(x + 500) ~hy:2500 in
  let img = Litho.Aerial.simulate model condition ~window polygons in
  Litho.Metrology.cd_horizontal img
    ~threshold:(Litho.Model.printed_threshold model condition)
    ~y:2000.0 ~x_center:(float_of_int x) ~search:250.0

let fmt_cd = function Some cd -> Printf.sprintf "%.2fnm" cd | None -> "NOT PRINTED"

let () =
  Format.printf "calibrated model: %a@." Litho.Model.pp model;

  (* 1. CD through pitch: the iso-dense bias OPC exists to fix. *)
  let rows =
    List.map
      (fun pitch ->
        let polygons = List.init 7 (fun i -> line ((i - 3) * pitch)) in
        let drawn_cd = cd_of polygons 0 in
        let corrected, _ =
          Opc.Model_opc.correct model
            (Opc.Model_opc.default_config tech)
            ~targets:polygons ~context:[]
        in
        let opc_cd = cd_of corrected 0 in
        [ string_of_int pitch; fmt_cd drawn_cd; fmt_cd opc_cd ])
      [ 350; 450; 600; 900; 1400; 2800 ]
  in
  Timing_opc.Report.table Format.std_formatter
    ~title:"CD through pitch (drawn 90nm line, centre of 7-line array)"
    ~header:[ "pitch_nm"; "no OPC"; "model OPC" ] rows;

  (* 2. CD through the process window on a dense array. *)
  let dense = List.init 7 (fun i -> line ((i - 3) * tech.Layout.Tech.poly_pitch)) in
  let rows =
    List.map
      (fun (dose, defocus) ->
        let condition = Litho.Condition.make ~dose ~defocus in
        [ Printf.sprintf "%.2f" dose;
          Printf.sprintf "%.0f" defocus;
          fmt_cd (cd_of ~condition dense 0) ])
      [ (0.95, 0.0); (1.0, 0.0); (1.05, 0.0); (1.0, 80.0); (1.0, 160.0); (0.96, 120.0) ]
  in
  Timing_opc.Report.table Format.std_formatter ~title:"CD through dose and defocus"
    ~header:[ "dose"; "defocus_nm"; "CD" ] rows;

  (* 3. Line-end pullback, before and after OPC. *)
  let stub = [ G.Polygon.of_rect (G.Rect.make ~lx:(-45) ~ly:0 ~hx:45 ~hy:2000) ] in
  let end_of polygons =
    let window = G.Rect.make ~lx:(-500) ~ly:1200 ~hx:500 ~hy:2700 in
    let img = Litho.Aerial.simulate model Litho.Condition.nominal ~window polygons in
    Litho.Metrology.edge_from img ~threshold:model.Litho.Model.threshold ~x:0.0
      ~y:1500.0 ~dx:0.0 ~dy:1.0 ~search:800.0
  in
  let corrected_stub, _ =
    Opc.Model_opc.correct model (Opc.Model_opc.default_config tech) ~targets:stub
      ~context:[]
  in
  let show label v =
    match v with
    | Some d -> Format.printf "%s: printed end at y=%.1f (drawn 2000, pullback %.1fnm)@."
                  label (1500.0 +. d) (2000.0 -. (1500.0 +. d))
    | None -> Format.printf "%s: no end found@." label
  in
  Format.printf "@.line-end pullback:@.";
  show "  drawn mask" (end_of stub);
  show "  OPC mask  " (end_of corrected_stub);

  (* 4. Process-variability band of the dense array, one simulation
     per corner condition across the recommended worker count (the
     band is bit-identical for any worker count). *)
  let window = G.Rect.make ~lx:(-700) ~ly:1500 ~hx:700 ~hy:2500 in
  let conditions =
    Litho.Condition.corners ~dose_range:(0.96, 1.04) ~defocus_range:(0.0, 120.0)
  in
  let pv =
    Exec.Pool.with_pool ~name:"playground"
      ~domains:(Exec.Pool.recommended ())
      (fun pool -> Litho.Pvband.compute ~pool model conditions ~window dense)
  in
  Format.printf "@.%a@." Litho.Pvband.pp pv
