module G = Geometry

type style = None_ | Rule of Rule_opc.recipe | Model of Model_opc.config

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
   read-only after construction, so tiles can be corrected
   concurrently from several domains against one plan. *)
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

(* One corrected tile.  [key] digests exactly what Model_opc.correct
   reads besides the model and config: the targets' geometry in
   target-id order, then the context's geometry in the order the
   plan's spatial query returns it (that order is the mask paint
   order).  Item ids and tile positions stay out of the key, so a tile
   whose inputs a move left alone keys the same on the moved chip. *)
type tile_result = {
  key : Digest.t;
  ids : int list;  (* target item ids, ascending *)
  fixed : G.Polygon.t list;  (* corrected targets, in [ids] order *)
  stats : Model_opc.stats;
  reused : bool;
}

let reused r = r.reused

let m_reused = Obs.Metrics.counter "opc.reused_tiles"

let tile_key targets context =
  let b = Buffer.create 4096 in
  let add p =
    List.iter
      (fun (v : G.Point.t) ->
        Buffer.add_string b (string_of_int v.G.Point.x);
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int v.G.Point.y);
        Buffer.add_char b ';')
      (G.Polygon.vertices p);
    Buffer.add_char b '|'
  in
  List.iter add targets;
  Buffer.add_char b '#';
  List.iter add context;
  Digest.string (Buffer.contents b)

(* Correct the plan's tiles against the frozen drawn context, one
   result per non-empty tile in canonical tile order.  Each tile's
   targets, context and key are found on the caller in tile order, and
   a tile whose key [reuse] holds takes the stored polygons and stats
   there, paired with this plan's target ids by position.  Only the
   corrections of the other tiles are pool tasks, and each hands the
   same pool to its sim tiles.  A polygon whose centre sits on a shared
   tile edge is a target of both tiles (Rect.contains_point is closed);
   applying results in canonical tile order keeps the later tile's
   polygon, exactly as the monolithic in-place pass did. *)
let correct_tiles ?pool ?(reuse = []) litho_model config ?(want = fun _ -> true) p =
  let stored = Hashtbl.create (List.length reuse) in
  List.iter (fun r -> Hashtbl.replace stored r.key r) reuse;
  let tiles =
    List.filter_map
      (fun t ->
        let centre_in i =
          G.Rect.contains_point t (G.Rect.center (G.Polygon.bbox p.items.(i)))
        in
        let ids =
          G.Spatial.query p.index t |> List.map snd
          |> List.filter (fun i -> centre_in i && want p.items.(i))
          |> List.sort_uniq Int.compare
        in
        if ids = [] then None
        else begin
          let targets = List.map (fun i -> p.items.(i)) ids in
          let in_targets i = List.mem i ids in
          let context =
            G.Spatial.query p.index (G.Rect.inflate t p.halo)
            |> List.filter_map (fun (_, i) ->
                   if in_targets i then None else Some p.items.(i))
          in
          let key = tile_key targets context in
          match Hashtbl.find_opt stored key with
          | Some r ->
              Obs.Metrics.incr m_reused;
              Some (Either.Left { r with ids; reused = true })
          | None -> Some (Either.Right (key, ids, targets, context))
        end)
      p.tiles
  in
  let correct (key, ids, targets, context) =
    let fixed, stats = Model_opc.correct ?pool litho_model config ~targets ~context in
    { key; ids; fixed; stats; reused = false }
  in
  let todo = List.filter_map Either.find_right tiles in
  let corrected =
    match pool with
    | None -> List.map correct todo
    | Some pool -> Exec.Pool.map_list ~label:"opc.correct_tiles" pool correct todo
  in
  let rec merge tiles corrected =
    match (tiles, corrected) with
    | Either.Left r :: tiles, _ -> r :: merge tiles corrected
    | Either.Right _ :: tiles, r :: corrected -> r :: merge tiles corrected
    | [], [] -> []
    | _ -> assert false
  in
  merge tiles corrected

let apply_results p results =
  let corrected = Array.copy p.items in
  List.iter
    (fun r -> List.iter2 (fun i q -> corrected.(i) <- q) r.ids r.fixed)
    results;
  corrected

let merged_stats results = Model_opc.merge_stats (List.map (fun r -> r.stats) results)

let assemble p results =
  ( Mask.of_polygons (Array.to_list (apply_results p results)),
    merged_stats results )

let correct litho_model style chip ~tile =
  let polys = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  match style with
  | None_ -> (Mask.of_polygons polys, zero_stats)
  | Rule recipe ->
      let neighbours window = Layout.Chip.shapes_in chip Layout.Layer.Poly window in
      (Rule_opc.correct recipe ~neighbours polys, zero_stats)
  | Model config ->
      let p = plan litho_model chip ~tile in
      assemble p (correct_tiles litho_model config p)

let correct_selective ?pool litho_model config recipe chip ~tile ~selected =
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
  let p = plan litho_model chip ~tile in
  let results = correct_tiles ?pool litho_model config ~want:touches_selected p in
  (* Rule-bias the untouched shapes. *)
  let neighbours window = Layout.Chip.shapes_in chip Layout.Layer.Poly window in
  let final =
    Array.to_list (apply_results p results)
    |> List.map (fun q ->
           if touches_selected q then q
           else
             match Rule_opc.correct recipe ~neighbours [ q ] |> Mask.polygons with
             | [ q' ] -> q'
             | _ -> q)
  in
  (Mask.of_polygons final, merged_stats results)
