(** Process-variability bands: the silicon area that prints under some
    but not all process-window conditions.  The band area over a window
    is the standard printability-robustness metric. *)

type t = {
  inner_area : float;  (** nm^2 printed under every condition *)
  outer_area : float;  (** nm^2 printed under at least one condition *)
  band_area : float;  (** outer - inner *)
  conditions : int;
}

(** [compute model conditions ~window polygons] simulates each
    condition over the same raster grid and accumulates the band.
    With [pool], the per-condition simulations run in parallel; the
    band accumulation is sequential in condition order, so the result
    is bit-identical for any worker count.  [engine] overrides the
    model's aerial engine for every condition's simulation (see
    {!Aerial}).
    @raise Invalid_argument on an empty condition list. *)
val compute :
  ?pool:Exec.Pool.t ->
  ?engine:Aerial.engine ->
  Model.t ->
  Condition.t list ->
  window:Geometry.Rect.t ->
  Geometry.Polygon.t list ->
  t

(** Band area normalised by the drawn area (dimensionless instability
    ratio); drawn area measured over the same window. *)
val band_ratio : t -> drawn_area:float -> float

val pp : Format.formatter -> t -> unit
