(** Float rasters over a layout window.

    A raster covers [origin + (0..nx*step, 0..ny*step)] in layout
    nanometres; pixel (ix, iy) is centred at
    [origin + ((ix+0.5)*step, (iy+0.5)*step)].  Mask rasterisation is
    area-weighted (anti-aliased), so sub-pixel edge moves change the
    image smoothly — essential for OPC's small trial displacements. *)

type t

(** [create ~origin ~step ~nx ~ny] makes a zero raster; [step] in nm. *)
val create : origin:Geometry.Point.t -> step:float -> nx:int -> ny:int -> t

(** Raster covering [window] inflated by [halo] nm at the given step. *)
val of_window : window:Geometry.Rect.t -> halo:int -> step:float -> t

(** Same geometry as {!of_window} but with no pixel storage — for
    cache-key/extent computation on lookup paths that may never paint.
    Only the geometry accessors ([nx], [ny], [step], [origin]) and
    {!like} are valid on a shape; {!get}/{!set}/{!sample} are not.
    [like shape] materialises a real zero raster. *)
val shape_of_window : window:Geometry.Rect.t -> halo:int -> step:float -> t

val nx : t -> int

val ny : t -> int

val step : t -> float

val origin : t -> Geometry.Point.t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val fill : t -> float -> unit

val copy : t -> t

(** [like t] is a fresh zero raster with [t]'s geometry (origin, step,
    nx, ny) — the allocation pattern for accumulation buffers. *)
val like : t -> t

(** [relocate t ~origin] views the same pixel data at a different
    layout origin.  The data array is shared with [t]; callers that
    mutate must [copy] first.  Used by {!Tile_cache} to re-home a
    content-addressed (translation-invariant) entry at a hit site. *)
val relocate : t -> origin:Geometry.Point.t -> t

(** Add the coverage fraction of [rect] (in layout nm) to every pixel.
    Parts outside the raster are clipped away.  With [clamp], pixels
    the rect touches are capped at 1.0 after accumulation; because
    contributions are non-negative this is bit-identical to one final
    whole-raster clamp, without ever scanning unpainted pixels. *)
val paint_rect : ?clamp:bool -> t -> Geometry.Rect.t -> unit

(** Bilinear sample at layout coordinates (float nm).  Outside the
    raster the value clamps to the border pixel. *)
val sample : t -> float -> float -> float

(** Layout x-coordinate of pixel-centre column [ix] (and row [iy]). *)
val x_of_ix : t -> int -> float

val y_of_iy : t -> int -> float

val max_value : t -> float

(**/**)

(** Direct row-major buffer access, pixel (ix, iy) at [iy * nx + ix];
    reserved for the convolution engines ({!Blur.accumulate} and
    {!Fft.convolve_gaussians}), which read and write whole rasters
    without per-pixel bounds checks. *)
val unsafe_data : t -> float array
