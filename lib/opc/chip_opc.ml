module G = Geometry

type style = None_ | Rule of Rule_opc.recipe | Model of Model_opc.config

let () = Fault.declare "opc.correct"

let zero_stats =
  { Model_opc.iterations_run = 0; max_epe = 0.0; rms_epe = 0.0; sites = 0; unresolved = 0 }

(* Assign each polygon to the tile containing its bbox centre; context
   of a tile is every polygon within the litho halo of the tile. *)
let tiles_of die ~tile =
  let nx = max 1 ((G.Rect.width die + tile - 1) / tile) in
  let ny = max 1 ((G.Rect.height die + tile - 1) / tile) in
  List.concat
    (List.init nx (fun ix ->
         List.init ny (fun iy ->
             G.Rect.make
               ~lx:(die.G.Rect.lx + (ix * tile))
               ~ly:(die.G.Rect.ly + (iy * tile))
               ~hx:(min die.G.Rect.hx (die.G.Rect.lx + ((ix + 1) * tile)))
               ~hy:(min die.G.Rect.hy (die.G.Rect.ly + ((iy + 1) * tile))))))

(* A prepared full-chip model correction: the drawn poly items, a
   spatial index over them, and the die tiling.  Everything here is
   read-only after construction, so disjoint tile subsets can be
   corrected concurrently from several domains against one plan. *)
type plan = {
  items : G.Polygon.t array;
  index : int G.Spatial.t;
  halo : int;
  tiles : G.Rect.t list;
}

let plan litho_model chip ~tile =
  let items = Array.of_list (Layout.Chip.flatten_layer chip Layout.Layer.Poly) in
  let index = G.Spatial.create ~bucket:4000 in
  Array.iteri (fun i p -> G.Spatial.insert index (G.Polygon.bbox p) i) items;
  let die =
    match Layout.Chip.die chip with
    | Some d -> d
    | None -> invalid_arg "Chip_opc: empty chip"
  in
  {
    items;
    index;
    halo = litho_model.Litho.Model.halo;
    tiles = tiles_of die ~tile;
  }

let tiles p = p.tiles

(* Correct a subset of the plan's tiles against the frozen drawn
   context.  Corrections come back as (item id, polygon) overwrites
   and stats per non-empty tile, both in the order of [ts].  A polygon
   whose centre sits on a shared tile edge is a target of both tiles
   (Rect.contains_point is closed); applying overwrites in canonical
   tile order keeps the later tile's result, exactly as the monolithic
   in-place pass did. *)
let correct_tiles ?pool litho_model config ?(want = fun _ -> true) p ts =
  let per_tile =
    List.filter_map
      (fun t ->
        let centre_in i =
          G.Rect.contains_point t (G.Rect.center (G.Polygon.bbox p.items.(i)))
        in
        let target_ids =
          G.Spatial.query p.index t |> List.map snd
          |> List.filter (fun i -> centre_in i && want p.items.(i))
          |> List.sort_uniq Int.compare
        in
        if target_ids = [] then None
        else begin
          let targets = List.map (fun i -> p.items.(i)) target_ids in
          let in_targets i = List.mem i target_ids in
          let context =
            G.Spatial.query p.index (G.Rect.inflate t p.halo)
            |> List.filter_map (fun (_, i) ->
                   if in_targets i then None else Some p.items.(i))
          in
          let fixed, stats =
            Model_opc.correct ?pool litho_model config ~targets ~context
          in
          Some (List.combine target_ids fixed, stats)
        end)
      ts
  in
  (List.concat_map fst per_tile, List.map snd per_tile)

let apply_overwrites p groups =
  let corrected = Array.copy p.items in
  List.iter (List.iter (fun (i, q) -> corrected.(i) <- q)) groups;
  corrected

let assemble p results =
  ( Mask.of_polygons (Array.to_list (apply_overwrites p (List.map fst results))),
    Model_opc.merge_stats (List.concat_map snd results) )

let model_correct litho_model config chip ~tile ~want =
  let p = plan litho_model chip ~tile in
  let overwrites, stats = correct_tiles litho_model config ~want p p.tiles in
  (apply_overwrites p [ overwrites ], Model_opc.merge_stats stats)

let correct litho_model style chip ~tile =
  Fault.point "opc.correct" @@ fun () ->
  let polys = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  match style with
  | None_ -> (Mask.of_polygons polys, zero_stats)
  | Rule recipe ->
      let neighbours window = Layout.Chip.shapes_in chip Layout.Layer.Poly window in
      (Rule_opc.correct recipe ~neighbours polys, zero_stats)
  | Model config ->
      let corrected, stats =
        model_correct litho_model config chip ~tile ~want:(fun _ -> true)
      in
      (Mask.of_polygons (Array.to_list corrected), stats)

let correct_selective litho_model config recipe chip ~tile ~selected =
  Fault.point "opc.correct" @@ fun () ->
  (* Gate-touching test: a polygon is "selected" when it intersects the
     drawn gate region of any selected transistor. *)
  let gate_index = G.Spatial.create ~bucket:4000 in
  List.iter
    (fun (g : Layout.Chip.gate_ref) ->
      G.Spatial.insert gate_index g.Layout.Chip.gate ())
    selected;
  let touches_selected p =
    let bb = G.Polygon.bbox p in
    G.Spatial.query gate_index bb <> []
  in
  let corrected, stats =
    model_correct litho_model config chip ~tile ~want:touches_selected
  in
  (* Rule-bias the untouched shapes. *)
  let neighbours window = Layout.Chip.shapes_in chip Layout.Layer.Poly window in
  let final =
    Array.to_list corrected
    |> List.map (fun p ->
           if touches_selected p then p
           else
             match Rule_opc.correct recipe ~neighbours [ p ] |> Mask.polygons with
             | [ q ] -> q
             | _ -> p)
  in
  (Mask.of_polygons final, stats)
