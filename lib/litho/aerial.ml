module G = Geometry

let m_simulations = Obs.Metrics.counter "litho.simulations"

let m_engine_direct = Obs.Metrics.counter "litho.engine.direct"

let m_engine_fft = Obs.Metrics.counter "litho.engine.fft"

(* ---- engine selection --------------------------------------------

   Two convolution engines produce the aerial image: [Direct] is the
   seed's per-kernel 3-pass box-blur cascade (the bit-identity oracle
   every golden is recorded against) and [Fft] computes the mask
   spectrum once and applies the whole kernel stack as a single
   frequency-domain multiply with the analytic Gaussian transfer
   function (see {!Fft.convolve_gaussians}).  The engine is part of
   the tile-cache key, so the engines never share cache entries. *)

type engine = Model.engine = Direct | Fft

let engine_to_string = function Direct -> "direct" | Fft -> "fft"

(* ---- content-addressed simulation keys ---------------------------

   A simulated tile is a pure function of (mask content inside the
   raster extent, raster geometry, defocus-adjusted kernel stack,
   engine).  Expressing the mask content as the ordered list
   of polygon decomposition rectangles clipped to the extent and
   *translated to the raster origin* makes the key
   translation-invariant, so repeated cell rows hit anywhere on the
   chip.  Dose is deliberately absent: it scales only
   [Model.printed_threshold], never the intensity, so a dose sweep at
   fixed defocus is a single cache entry.  The engine tag is not:
   direct and FFT intensities differ inside the tolerance contract,
   and one key must never serve both. *)

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
    (Printf.sprintf "v2|%s|%dx%d|%h|"
       (match model.Model.engine with Direct -> "d" | Fft -> "f")
       (Raster.nx raster) (Raster.ny raster) (Raster.step raster));
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

(* Sigma the direct cascade actually realises: three integer-width box
   passes match the Gaussian variance only up to width quantisation
   (a discrete box of width w has variance (w^2-1)/12), and that ~1-2%
   width error moves printed edges by over a nanometre at defocus.
   The FFT engine uses the analytic Gaussian at the cascade's achieved
   variance, cancelling the first-order width error so the
   cross-engine CD delta is down to the residual shape (kurtosis)
   difference.  Below the cascade's no-op threshold the kernel is an
   identity for both engines. *)
let cascade_sigma_px sigma_px =
  if sigma_px <= 0.25 then 0.0
  else
    Blur.box_sizes ~sigma:sigma_px ~passes:3
    |> Array.fold_left
         (fun acc w -> acc +. (float_of_int ((w * w) - 1) /. 12.0))
         0.0
    |> sqrt

(* The FFT path mutates the mask into the intensity in place: one
   forward transform, one multiply by the accumulated transfer
   function of the whole kernel stack, one inverse transform. *)
let convolve_fft (model : Model.t) (condition : Condition.t) mask =
  let kernels =
    List.map
      (fun (k : Model.kernel) ->
        ( cascade_sigma_px
            (Model.effective_sigma model k ~defocus:condition.Condition.defocus
            /. model.Model.step),
          k.Model.weight ))
      model.Model.kernels
  in
  Fft.convolve_gaussians mask ~kernels

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
  let eng = model.Model.engine in
  Obs.Metrics.incr (match eng with Fft -> m_engine_fft | Direct -> m_engine_direct);
  let rects = clipped_rects shape polygons in
  let compute () =
    match eng with
    | Fft ->
        let r =
          match into with
          | Some b ->
              Raster.fill b.intensity 0.0;
              b.intensity
          | None -> Raster.like shape
        in
        paint_mask r rects;
        convolve_fft model condition r;
        r
    | Direct ->
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
     position is exactly the threshold that pins printed CD = drawn.
     Calibration runs on the engine that will simulate, so each engine
     is a centred process on the reference pattern and cross-engine CD
     deltas measure only the pattern-dependent part of the
     approximation difference. *)
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
