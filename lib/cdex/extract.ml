module G = Geometry

type mask_source = G.Rect.t -> G.Polygon.t list

let m_tiles = Obs.Metrics.counter "cdex.tiles"

let m_gates = Obs.Metrics.counter "cdex.gates"

(* Measured slice CDs in nm; the 90 nm drawn gate sits mid-range. *)
let m_cd =
  Obs.Metrics.histogram
    ~edges:[| 60.0; 70.0; 80.0; 85.0; 90.0; 95.0; 100.0; 110.0; 130.0; 160.0 |]
    "cdex.cd_nm"

let drawn_source chip window = Layout.Chip.shapes_in chip Layout.Layer.Poly window

let bucket_key ~tile (g : Layout.Chip.gate_ref) =
  let c = G.Rect.center g.Layout.Chip.gate in
  (c.G.Point.x / tile, c.G.Point.y / tile)

(* Group gates into square tiles keyed by the tile containing the gate
   centre, so each aerial image is shared by many measurements.
   Buckets come out sorted by key with gates in input order, so the
   record order is a canonical function of the gate set rather than of
   hash-table internals. *)
let bucket_gates ~tile gates =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (g : Layout.Chip.gate_ref) ->
      let key = bucket_key ~tile g in
      let cur = Option.value ~default:[] (Hashtbl.find_opt table key) in
      Hashtbl.replace table key (g :: cur))
    gates;
  Hashtbl.fold (fun key gs acc -> (key, List.rev gs) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let measure_gate intensity ~threshold ~slices ~search (g : Layout.Chip.gate_ref) =
  let r = g.Layout.Chip.gate in
  let xc = float_of_int (r.G.Rect.lx + r.G.Rect.hx) /. 2.0 in
  let w = G.Rect.height r in
  (* Cutlines at interior positions: i+1 of slices+1 equal divisions,
     staying clear of the active-edge ends of the channel. *)
  let cds =
    List.filter_map
      (fun i ->
        let y =
          float_of_int r.G.Rect.ly
          +. (float_of_int w *. float_of_int (i + 1) /. float_of_int (slices + 1))
        in
        Litho.Metrology.cd_horizontal intensity ~threshold ~y ~x_center:xc ~search)
      (List.init slices Fun.id)
  in
  (cds, List.length cds = slices)

let extract ?pool model condition ~mask ~gates ?(slices = 7)
    ?(tile = 6000) ?(search = 220.0) () =
  Obs.Span.with_ ~name:"cdex.extract"
    ~attrs:(fun () -> [ ("gates", string_of_int (List.length gates)) ])
  @@ fun () ->
  let halo = model.Litho.Model.halo in
  let threshold = Litho.Model.printed_threshold model condition in
  let buckets = bucket_gates ~tile gates in
  Obs.Metrics.add m_tiles (List.length buckets);
  Obs.Metrics.add m_gates (List.length gates);
  let measure_bucket bucket =
    let window =
      G.Rect.inflate
        (G.Rect.hull_of_list (List.map (fun (g : Layout.Chip.gate_ref) -> g.Layout.Chip.gate) bucket))
        300
    in
    let polygons = mask (G.Rect.inflate window halo) in
    let intensity = Litho.Aerial.simulate model condition ~window polygons in
    List.map
      (fun g ->
        let cds, printed = measure_gate intensity ~threshold ~slices ~search g in
        List.iter (Obs.Metrics.observe m_cd) cds;
        { Gate_cd.gate = g; condition; cds; slices_requested = slices; printed })
      bucket
  in
  match pool with
  | None -> List.concat_map measure_bucket buckets
  | Some p ->
      (* The mask source may build a spatial index lazily on first
         query (Chip.shapes_in does); warm it on the calling domain so
         worker tasks only perform concurrent reads. *)
      (match buckets with
      | b :: _ ->
          ignore
            (mask
               (G.Rect.inflate
                  (G.Rect.hull_of_list
                     (List.map (fun (g : Layout.Chip.gate_ref) -> g.Layout.Chip.gate) b))
                  halo))
      | [] -> ());
      Exec.Pool.concat_map_list ~label:"cdex.tiles" p measure_bucket buckets

let in_region ~region (g : Layout.Chip.gate_ref) =
  G.Rect.touches region g.Layout.Chip.gate

let gates_in ~region gates = List.filter (in_region ~region) gates

let extract_conditions ?pool model conditions ~mask ~gates ?(slices = 7)
    ?(tile = 6000) ?(search = 220.0) () =
  List.concat_map
    (fun condition ->
      extract ?pool model condition ~mask ~gates ~slices ~tile ~search ())
    conditions
