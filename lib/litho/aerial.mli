(** Aerial-image simulation.

    [simulate model condition ~window polygons] rasterises the mask
    polygons over [window] plus the model halo and convolves with the
    defocus-adjusted kernel stack.  The returned raster holds relative
    intensity (1.0 deep inside large features); apply
    {!Model.printed_threshold} to decide printing.

    Two engines perform the convolution.  [Direct] is the per-kernel
    3-pass box-blur cascade — the bit-identity oracle all goldens are
    recorded against.  [Fft] computes the mask spectrum once and
    applies the whole kernel stack as a single frequency-domain
    multiply with the analytic Gaussian transfer function
    [Σ wₖ·exp(-2π²σₖ²|f|²)] ({!Fft.convolve_gaussians}); its output
    agrees with the direct engine within the documented tolerance
    contract (see DESIGN.md) but is not bit-equal.  A simulation uses
    the model's {!Model.t.engine} unless it is given [?engine].  The
    engine is part of the tile cache key, so engines never share cache
    entries.

    The direct engine blurs one scratch copy of the mask per kernel
    and blends it into the intensity in kernel order, so a simulation
    works in three rasters: mask, scratch and intensity.  With [into],
    those are caller-owned {!buffers} made once for a fixed window and
    reused by every simulation of it (model OPC's passes over its sim
    tiles); the result is then [into]'s intensity raster, overwritten
    by the next simulation into the same buffers.  One simulation runs
    on one domain: parallelism is across tiles (model OPC's sim
    tiles), never across the kernels of one image.

    When the model's {!Model.t.cache} is set, every simulation first
    consults the content-addressed {!Tile_cache.global}: the key is the
    clipped mask geometry relative to the raster origin plus the raster
    geometry, the defocus-adjusted kernel stack, and the engine, so
    repeated cell patterns hit at any placement and a dose sweep at
    fixed defocus hits after its first condition (dose scales the
    threshold, not the intensity).  Hits are bit-identical to a
    fresh simulation by construction, so enabling the cache never
    changes results — only wall time.

    The returned raster is read-only.  A hit returns the stored image
    itself, relocated to the window's origin ({!Tile_cache.find}),
    even when [into] is given; a miss stores the image it computed,
    copying it first only when it was computed in [into]'s buffers.
    Only [into] buffers are the caller's to write.  Every caller only
    reads the image: CD extraction ([Cdex.Extract]), {!Pvband},
    {!calibrate}, model OPC ([Opc.Model_opc]), ORC ([Opc.Orc]), SRAF
    placement ([Opc.Sraf]), the bench harness and the examples. *)

type engine = Model.engine = Direct | Fft

(** ["direct"] or ["fft"]: the [--engine] spelling, also part of the
    litho model calibration key and of every checkpoint key. *)
val engine_to_string : engine -> string

(** [cascade_sigma_px s] is the Gaussian sigma, in pixels, that the
    direct engine's three integer-width box passes realise for a
    requested sigma of [s] pixels: the square root of the summed box
    variances [(w^2 - 1) / 12].  [0.0] below the cascade's no-op
    threshold.  The FFT engine applies the analytic Gaussian at this
    sigma, so both engines share it, and a closed-form oracle at this
    sigma isolates each engine's shape error. *)
val cascade_sigma_px : float -> float

(** Caller-owned rasters for repeated simulations of one window. *)
type buffers

(** [buffers model ~window] allocates the mask, scratch and intensity
    rasters for simulating [window] under [model]'s step and halo. *)
val buffers : Model.t -> window:Geometry.Rect.t -> buffers

(** Raises [Invalid_argument] when [into] was made for another window. *)
val simulate :
  ?engine:engine ->
  ?into:buffers ->
  Model.t ->
  Condition.t ->
  window:Geometry.Rect.t ->
  Geometry.Polygon.t list ->
  Raster.t

(** The rasterised (clamped, anti-aliased) mask without convolution;
    exposed for tests and debugging. *)
val mask_raster :
  Model.t -> window:Geometry.Rect.t -> Geometry.Polygon.t list -> Raster.t

(** [calibrate model tech] sets the resist threshold so that a dense
    line array at drawn gate length prints at exactly the drawn CD
    under the nominal condition — a centred process.  The threshold is
    read off the simulated intensity at the drawn edge position, using
    the engine that will simulate (so each engine is centred on the
    reference pattern): [?engine] when given, else the model's.  The
    returned model carries that engine. *)
val calibrate : ?engine:engine -> Model.t -> Layout.Tech.t -> Model.t
