module G = Geometry

let m_simulations = Obs.Metrics.counter "litho.simulations"

type engine = Direct

(* ---- content-addressed simulation keys ---------------------------

   A simulated tile is a pure function of (mask content inside the
   raster extent, raster geometry, defocus-adjusted kernel stack).
   Expressing the mask content as the ordered list of polygon
   decomposition rectangles clipped to the extent and *translated to
   the raster origin* makes the key translation-invariant, so repeated
   cell rows hit anywhere on the chip.  Dose is deliberately absent: it
   scales only [Model.printed_threshold], never the intensity, so a
   dose sweep at fixed defocus is a single cache entry. *)

(* Pixel extent of a raster in layout nm, rounded outward.  Clipping a
   mask rectangle to this extent changes no painted pixel: boundary
   pixels weight coverage by min/max against the pixel edge, and the
   outward-rounded bound projects at or beyond the last pixel edge.
   The clipped rect list therefore *is* the painted content. *)
let paint_extent raster =
  let o = Raster.origin raster in
  let span n = int_of_float (Float.ceil (float_of_int n *. Raster.step raster)) in
  G.Rect.make ~lx:o.G.Point.x ~ly:o.G.Point.y
    ~hx:(o.G.Point.x + span (Raster.nx raster))
    ~hy:(o.G.Point.y + span (Raster.ny raster))

let clipped_rects raster polygons =
  let extent = paint_extent raster in
  List.concat_map
    (fun p ->
      List.filter_map (G.Rect.inter extent)
        (G.Region.to_rects (G.Region.of_polygon p)))
    polygons

let cache_key (model : Model.t) (condition : Condition.t) raster rects =
  let b = Buffer.create 256 in
  let o = Raster.origin raster in
  Buffer.add_string b
    (Printf.sprintf "v2|%dx%d|%h|" (Raster.nx raster) (Raster.ny raster)
       (Raster.step raster));
  List.iter
    (fun (k : Model.kernel) ->
      Buffer.add_string b
        (Printf.sprintf "k%h,%h|"
           (Model.effective_sigma model k ~defocus:condition.Condition.defocus)
           k.Model.weight))
    model.Model.kernels;
  List.iter
    (fun (r : G.Rect.t) ->
      Buffer.add_string b
        (Printf.sprintf "r%d,%d,%d,%d|"
           (r.G.Rect.lx - o.G.Point.x) (r.G.Rect.ly - o.G.Point.y)
           (r.G.Rect.hx - o.G.Point.x) (r.G.Rect.hy - o.G.Point.y)))
    rects;
  Buffer.contents b

let paint_mask raster rects =
  (* Clamp while painting: overlapping input shapes (e.g. a strap
     joining a stripe) must not double-expose the mask.  Clamping
     inside each rect's touched span is bit-identical to a final
     whole-raster clamp (contributions are non-negative) without
     scanning the nx*ny pixels a sparse tile never paints. *)
  List.iter (Raster.paint_rect ~clamp:true raster) rects

let mask_raster (model : Model.t) ~window polygons =
  let raster =
    Raster.of_window ~window ~halo:model.Model.halo ~step:model.Model.step
  in
  paint_mask raster (clipped_rects raster polygons);
  raster

(* What one direct simulation writes: the painted mask, the blur's
   work arrays, and the accumulated intensity. *)
type buffers = { mask : Raster.t; work : Blur.work; intensity : Raster.t }

let buffers_like shape =
  { mask = Raster.like shape; work = Blur.work (); intensity = Raster.like shape }

let buffers (model : Model.t) ~window =
  buffers_like
    (Raster.shape_of_window ~window ~halo:model.Model.halo ~step:model.Model.step)

(* The direct (oracle) path: kernel by kernel, add the weighted blur of
   the mask into the intensity.  Accumulating in kernel order keeps the
   image bit-identical to summing every blurred copy at the end. *)
let convolve_direct (model : Model.t) (condition : Condition.t) b =
  Raster.fill b.intensity 0.0;
  List.iter
    (fun (k : Model.kernel) ->
      let sigma = Model.effective_sigma model k ~defocus:condition.Condition.defocus in
      Blur.accumulate b.work ~src:b.mask ~dst:b.intensity
        ~sigma_px:(sigma /. model.Model.step) ~weight:k.Model.weight)
    model.Model.kernels

let simulate ?into (model : Model.t) (condition : Condition.t) ~window
    polygons =
  Obs.Span.with_ ~name:"litho.simulate"
    ~attrs:(fun () -> [ ("polygons", string_of_int (List.length polygons)) ])
  @@ fun () ->
  Obs.Metrics.incr m_simulations;
  (* Geometry only until we know it's a miss: the nx*ny zero-fill is
     the dominant allocation here and a cache hit never paints. *)
  let shape =
    Raster.shape_of_window ~window ~halo:model.Model.halo ~step:model.Model.step
  in
  Option.iter
    (fun b ->
      let r = b.intensity in
      if
        Raster.nx r <> Raster.nx shape
        || Raster.ny r <> Raster.ny shape
        || Raster.step r <> Raster.step shape
        || not (G.Point.equal (Raster.origin r) (Raster.origin shape))
      then invalid_arg "Aerial.simulate: buffers made for another window")
    into;
  let rects = clipped_rects shape polygons in
  let compute () =
    let b =
      match into with
      | Some b ->
          Raster.fill b.mask 0.0;
          b
      | None -> buffers_like shape
    in
    paint_mask b.mask rects;
    convolve_direct model condition b;
    b.intensity
  in
  (* An image in the caller's [into] buffers is overwritten by the next
     simulation into them, so it never enters the cache. *)
  if Option.is_some into || not model.Model.cache then compute ()
  else
    let key = cache_key model condition shape rects in
    match Tile_cache.find Tile_cache.global ~origin:(Raster.origin shape) key with
    | Some intensity -> intensity
    | None ->
        let intensity = compute () in
        Tile_cache.store Tile_cache.global key intensity;
        intensity

let calibrate (model : Model.t) (tech : Layout.Tech.t) =
  (* Reference pattern: a dense array of vertical lines at drawn gate
     length and contacted pitch.  The printed edge sits where the
     intensity equals the threshold, so the intensity at the drawn edge
     position is exactly the threshold that pins printed CD = drawn. *)
  let l = tech.Layout.Tech.gate_length in
  let pitch = tech.Layout.Tech.poly_pitch in
  let nlines = 9 in
  let height = 4000 in
  let lines =
    List.init nlines (fun i ->
        let xc = pitch * i in
        G.Polygon.of_rect
          (G.Rect.make ~lx:(xc - (l / 2)) ~ly:0 ~hx:(xc + (l / 2)) ~hy:height))
  in
  let center = pitch * (nlines / 2) in
  let window =
    G.Rect.make ~lx:(center - pitch)
      ~ly:((height / 2) - 500)
      ~hx:(center + pitch)
      ~hy:((height / 2) + 500)
  in
  let intensity = simulate model Condition.nominal ~window lines in
  let edge_x = float_of_int center +. (float_of_int l /. 2.0) in
  let threshold = Raster.sample intensity edge_x (float_of_int (height / 2)) in
  Model.with_threshold model threshold
