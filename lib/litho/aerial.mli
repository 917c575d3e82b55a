(** Aerial-image simulation.

    [simulate model condition ~window polygons] rasterises the mask
    polygons over [window] plus the model halo and convolves with the
    defocus-adjusted kernel stack.  The returned raster holds relative
    intensity (1.0 deep inside large features); apply
    {!Model.printed_threshold} to decide printing.

    The convolution is the per-kernel 3-pass box-blur cascade, the
    one engine every golden is recorded against.  It adds each
    kernel's weighted blur of the mask into the intensity in kernel
    order, one fused step per kernel ({!Blur.accumulate}), so a
    simulation works in the mask, the intensity and the blur's work
    arrays (the horizontal output of
    the distinct mask rows with each row's offset into it, one blurred
    image, line buffers and running sums).  With [into], those are
    caller-owned {!buffers} made once for a fixed window and reused by
    every simulation of it (model OPC's passes over its sim tiles), so
    a simulation into them allocates no array after the first; the
    result is then [into]'s intensity raster, overwritten by the next
    simulation into the same buffers.  One simulation runs
    on one domain: parallelism is across tiles (model OPC's sim
    tiles), never across the kernels of one image.

    When the model's {!Model.t.cache} is set, a simulation without
    [into] first consults the content-addressed {!Tile_cache.global}:
    the key is the clipped mask geometry relative to the raster origin
    plus the raster geometry and the defocus-adjusted kernel stack, so
    repeated cell patterns hit at any placement and a dose sweep at
    fixed defocus hits after its first condition (dose scales the
    threshold, not the intensity).  Hits are bit-identical
    to a fresh simulation by construction, so enabling the cache never
    changes results — only wall time and memory.  A simulation into
    [into] bypasses the cache: it neither looks up nor stores, and
    counts no hit or miss, because its image is overwritten by the
    next simulation into the same buffers.

    The returned raster is read-only, except that [into]'s buffers are
    the caller's to write.  A hit returns the stored image itself,
    relocated to the window's origin ({!Tile_cache.find}); a miss
    stores the image it computed.  Every caller only reads the image:
    CD extraction ([Cdex.Extract]), {!Pvband}, {!calibrate}, model OPC
    ([Opc.Model_opc], always with [into]), ORC ([Opc.Orc]), the bench
    harness and the examples. *)

(** The one convolution engine, the box-blur cascade above.  Nothing
    reads it: it is kept only because the benchmark's config literal
    ([perfbench/main.ml]) sets [Flow.config.engine = Direct], and it
    goes with that field. *)
type engine = Direct

(** Caller-owned rasters for repeated simulations of one window. *)
type buffers

(** [buffers model ~window] allocates the mask and intensity rasters
    for simulating [window] under [model]'s step and halo, and the
    blur's work arrays, which the first simulation sizes. *)
val buffers : Model.t -> window:Geometry.Rect.t -> buffers

(** Raises [Invalid_argument] when [into] was made for another window.
    With [into], the tile cache is not consulted. *)
val simulate :
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
    read off the simulated intensity at the drawn edge position. *)
val calibrate : Model.t -> Layout.Tech.t -> Model.t
