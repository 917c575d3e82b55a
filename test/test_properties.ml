(* Cross-module property tests: invariants that tie the geometry,
   litho, device and timing layers together. *)

module G = Geometry

let tech = Layout.Tech.node90

(* Random staircase (rectilinear, simple) polygons: built from a
   monotone staircase so they are always valid. *)
let staircase_gen =
  QCheck.Gen.(
    let* steps = int_range 1 6 in
    let* widths = list_repeat steps (int_range 10 120) in
    let* heights = list_repeat steps (int_range 10 120) in
    (* Ring: staircase along the bottom-right —
       (0,0) (x1,0) (x1,y1) (x2,y1) ... (xn,yn) — closed by the top-left
       corner (0,yn); always a simple rectilinear polygon. *)
    let rec walk x y ws hs acc =
      match (ws, hs) with
      | w :: ws', h :: hs' ->
          let x' = x + w in
          let y' = y + h in
          walk x' y' ws' hs' (G.Point.make x' y' :: G.Point.make x' y :: acc)
      | _, _ -> (List.rev acc, y)
    in
    let stairs, top = walk 0 0 widths heights [ G.Point.make 0 0 ] in
    return (G.Polygon.make (stairs @ [ G.Point.make 0 top ])))

let arb_staircase = QCheck.make ~print:(fun p -> Format.asprintf "%a" G.Polygon.pp p) staircase_gen

let prop_polygon_region_area_agree =
  QCheck.Test.make ~name:"polygon area = region area" ~count:300 arb_staircase
    (fun p -> G.Polygon.area p = G.Region.area (G.Region.of_polygon p))

let all_orients : G.Transform.orientation list =
  [ G.Transform.R0; R90; R180; R270; MX; MY; MXR90; MYR90 ]

let prop_transform_preserves_area =
  QCheck.Test.make ~name:"transform preserves polygon area" ~count:200
    (QCheck.pair arb_staircase (QCheck.int_range 0 7))
    (fun (p, oi) ->
      let t = G.Transform.make ~orient:(List.nth all_orients oi) (G.Point.make 17 (-9)) in
      G.Polygon.area (G.Transform.apply_polygon t p) = G.Polygon.area p)

let prop_region_inflate_grows =
  QCheck.Test.make ~name:"region inflate grows area" ~count:200 arb_staircase
    (fun p ->
      let r = G.Region.of_polygon p in
      G.Region.area (G.Region.inflate r 5) >= G.Region.area r)

let arb_edge =
  QCheck.make
    (QCheck.Gen.(
       let* x = int_range (-200) 200 in
       let* y = int_range (-200) 200 in
       let* len = int_range 1 500 in
       let* horiz = bool in
       return
         (if horiz then G.Edge.make (G.Point.make x y) (G.Point.make (x + len) y)
          else G.Edge.make (G.Point.make x y) (G.Point.make x (y + len)))))

let prop_edge_split_sums =
  QCheck.Test.make ~name:"edge split lengths sum" ~count:300
    (QCheck.pair arb_edge (QCheck.int_range 1 100))
    (fun (e, max_len) ->
      let parts = G.Edge.split e ~max_len in
      List.fold_left (fun acc f -> acc + G.Edge.length f) 0 parts = G.Edge.length e
      && List.for_all (fun f -> G.Edge.length f <= max_len) parts)

let env = Circuit.Delay_model.default_env tech

let prop_nldm_lookup_bounded =
  let inv = Circuit.Cell_lib.find "INV_X1" in
  let table = Circuit.Nldm.characterize env inv () in
  QCheck.Test.make ~name:"nldm lookup within table range" ~count:300
    (QCheck.pair (QCheck.float_range 0.0 500.0) (QCheck.float_range 0.0 150.0))
    (fun (slew_in, c_load) ->
      let r = Circuit.Nldm.lookup table ~slew_in ~c_load in
      let tbl = table.Circuit.Nldm.tbl in
      let flat = Array.to_list tbl.Circuit.Nldm.delay |> List.concat_map Array.to_list in
      let lo = List.fold_left Float.min infinity flat in
      let hi = List.fold_left Float.max neg_infinity flat in
      r.Circuit.Delay_model.delay >= lo -. 1e-9 && r.Circuit.Delay_model.delay <= hi +. 1e-9)

let prop_delay_monotone_in_length =
  QCheck.Test.make ~name:"gate delay monotone in channel length" ~count:200
    (QCheck.pair (QCheck.float_range 60.0 140.0) (QCheck.float_range 1.0 20.0))
    (fun (l, dl) ->
      let cell = Circuit.Cell_lib.find "NAND2_X1" in
      let d l =
        (Circuit.Delay_model.gate_delay env cell
           ~lengths:{ Circuit.Delay_model.l_n = l; l_p = l }
           ~slew_in:20.0 ~c_load:5.0)
          .Circuit.Delay_model.delay
      in
      d (l +. dl) > d l)

let prop_ioff_monotone_decreasing =
  QCheck.Test.make ~name:"ioff monotone decreasing in L" ~count:200
    (QCheck.pair (QCheck.float_range 40.0 200.0) (QCheck.float_range 0.5 30.0))
    (fun (l, dl) ->
      Device.Mosfet.ioff Device.Mosfet.nmos_90 ~w:600.0 ~l
      > Device.Mosfet.ioff Device.Mosfet.nmos_90 ~w:600.0 ~l:(l +. dl))

let prop_snippet_similarity_bounds =
  let shapes =
    [ G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:90 ~hy:1000);
      G.Polygon.of_rect (G.Rect.make ~lx:350 ~ly:200 ~hx:440 ~hy:800) ]
  in
  let source w = List.filter (fun p -> G.Rect.overlaps (G.Polygon.bbox p) w) shapes in
  QCheck.Test.make ~name:"snippet similarity in [0,1] and symmetric" ~count:100
    (QCheck.pair (QCheck.int_range (-200) 600) (QCheck.int_range (-200) 1200))
    (fun (x, y) ->
      let a = Hotspot.Snippet.capture ~source ~radius:300 (G.Point.make x y) in
      let b = Hotspot.Snippet.capture ~source ~radius:300 (G.Point.make (x + 40) y) in
      let s1 = Hotspot.Snippet.similarity a b and s2 = Hotspot.Snippet.similarity b a in
      s1 >= 0.0 && s1 <= 1.0 && Float.abs (s1 -. s2) < 1e-9)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bound" ~count:200
    (QCheck.pair QCheck.small_int QCheck.(int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Stats.Rng.create seed in
      let v = Stats.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_leff_between_bounds_both_kinds =
  QCheck.Test.make ~name:"leff for pmos also bounded" ~count:150
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (float_range 65.0 120.0))
    (fun cds ->
      QCheck.assume (cds <> []);
      let p = Device.Gate_profile.of_cds ~w:900.0 cds in
      let r = Device.Leff.reduce Device.Mosfet.pmos_90 p in
      let lo = List.fold_left Float.min infinity cds in
      let hi = List.fold_left Float.max neg_infinity cds in
      r.Device.Leff.l_on >= lo -. 0.5 && r.Device.Leff.l_on <= hi +. 0.5)

(* ---- parsers: mutation fuzzing ----

   Every parser that reads outside input has one documented error
   path: [Error _] for Obs.Json and Serve.Protocol, [Failure _] for
   Cdex.Csv and Layout.Io.  Mutants of valid inputs (byte
   substitutions, inserted delimiters, deleted, duplicated and spliced
   ranges, truncations) must either parse or take that path; any other
   exception fails the property. *)

let json_seeds =
  [ {|{"verb":"whatif","gate":"g22","dx":400,"dy":-200,"id":7}|};
    {|{"type":"histogram","name":"serve.latency.status","count":3,"sum":1.5e-3,"edges":[0.1,1,10],"counts":[1,2,0,0]}|};
    {|{"s":"a\"b\\c\u00e9\n","n":-0.0,"x":[true,false,null,[],{}],"e":1E+2}|};
    {|[[[{"a":[1,2.5,-3e-7]}]]]|} ]

let request_seeds =
  [ {|{"verb":"status"}|};
    {|{"verb":"retime","endpoint":9}|};
    {|{"verb":"whatif","gate":"g22","dl":3.0}|};
    {|{"verb":"whatif","gate":"g22","dx":400,"dy":0,"id":3}|};
    {|{"verb":"cds","lx":0,"ly":0,"hx":3000,"hy":3000}|};
    {|{"verb":"corner","dose":1.03,"defocus":90,"spread":8}|};
    {|{"verb":"ssta","top":3}|};
    {|{"verb":"metrics"}|};
    {|{"verb":"retime","endpiont":9}|};
    {|{"verb":"shutdown"}|} ]

let csv_seeds =
  let row = "u1,t0,NAND2_X1,n,100,200,190,600,90,400,false" in
  [ String.concat "\n"
      [ Cdex.Csv.header;
        row ^ ",0x1.051eb851eb852p+0,0x1.18p+6,3,true,0x1.6p+6;0x1.68p+6;0x1.5cp+6";
        row ^ ",1.0200,70.0,3,false," ];
    Cdex.Csv.header ^ "\nu2,t1,INV_X1,p,0,0,90,900,90,900,true,1.0,0.0,1,true,91.5\n" ]

let shape_seeds =
  [ "poly 0 0 90 0 90 1000 0 1000\n# comment\n\nmetal1 0 0 40 0 40 40 0 40";
    "poly 0 0 200 0 200 100 100 100 100 300 0 300\nactive -50 -50 50 -50 50 50 -50 50\n" ]

let fuzz_alphabet = "{}[]\":,.-+eE0123456789 \n\t#;\\/ux\000\255"

let mutant_gen seeds =
  QCheck.Gen.(
    let byte =
      oneof
        [ char;
          map (String.get fuzz_alphabet) (int_bound (String.length fuzz_alphabet - 1)) ]
    in
    let mutate s =
      let n = String.length s in
      let* op = int_bound 5 and* i = int_bound n and* j = int_bound n and* c = byte in
      let* other = oneofl seeds in
      let lo = min i j and hi = max i j in
      let sub a b = String.sub s a (b - a) in
      return
        (match op with
        | 0 when n > 0 ->
            String.mapi (fun k x -> if k = min i (n - 1) then c else x) s
        | 0 | 1 -> sub 0 i ^ String.make 1 c ^ sub i n
        | 2 -> sub 0 lo ^ sub hi n
        | 3 -> sub 0 hi ^ sub lo hi ^ sub hi n
        | 4 -> sub 0 i
        | _ ->
            let m = String.length other in
            sub 0 lo ^ String.sub other (min i m) (m - min i m) ^ sub hi n)
    in
    let rec apply k s = if k = 0 then return s else mutate s >>= apply (k - 1) in
    let* k = int_range 1 6 in
    oneofl seeds >>= apply k)

let prop_parser ~name seeds parses =
  QCheck.Test.make ~name ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") (mutant_gen seeds))
    parses

let prop_json_parse =
  prop_parser ~name:"Obs.Json.parse returns Ok or Error" json_seeds (fun s ->
      match Obs.Json.parse s with Ok _ | Error _ -> true)

let prop_parse_request =
  prop_parser ~name:"Protocol.parse_request returns Ok or Error" request_seeds
    (fun s ->
      match Timing_opc_serve.Protocol.parse_request s with Ok _ | Error _ -> true)

let prop_csv_read =
  prop_parser ~name:"Cdex.Csv.read parses or raises Failure" csv_seeds (fun s ->
      match Cdex.Csv.read s with _ -> true | exception Failure _ -> true)

let prop_read_shapes =
  prop_parser ~name:"Layout.Io.read_shapes parses or raises Failure" shape_seeds
    (fun s ->
      match Layout.Io.read_shapes s with _ -> true | exception Failure _ -> true)

let () =
  Alcotest.run "properties"
    [
      ( "cross-module",
        List.map QCheck_alcotest.to_alcotest
          [ prop_polygon_region_area_agree;
            prop_transform_preserves_area;
            prop_region_inflate_grows;
            prop_edge_split_sums;
            prop_nldm_lookup_bounded;
            prop_delay_monotone_in_length;
            prop_ioff_monotone_decreasing;
            prop_snippet_similarity_bounds;
            prop_rng_int_bounds;
            prop_leff_between_bounds_both_kinds ] );
      ( "parsers",
        List.map QCheck_alcotest.to_alcotest
          [ prop_json_parse; prop_parse_request; prop_csv_read; prop_read_shapes ] );
    ]
