(** Bitmap pattern signatures for fast full-chip pattern matching
    (DRC-Plus-style): a snippet's geometry is rasterised onto a coarse
    occupancy grid; candidate sites match a library pattern when the
    Hamming distance of their signatures is within tolerance.  The
    cheap screen in front of exact snippet similarity. *)

type t

(** [signature ~cells snippet] rasterises onto a [cells] x [cells]
    occupancy grid (a cell is set when geometry covers at least half of
    it). *)
val signature : cells:int -> Snippet.t -> t

(** Number of differing grid cells.
    @raise Invalid_argument on grid-size mismatch. *)
val distance : t -> t -> int

val matches : tolerance:int -> t -> t -> bool

(** [scan ~source ~radius ~cells ~tolerance pattern candidates] returns
    the candidate points whose local signature matches. *)
val scan :
  source:(Geometry.Rect.t -> Geometry.Polygon.t list) ->
  radius:int ->
  cells:int ->
  tolerance:int ->
  t ->
  Geometry.Point.t list ->
  Geometry.Point.t list

val pp : Format.formatter -> t -> unit
