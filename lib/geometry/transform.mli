(** Placement transforms: the eight layout orientations plus an integer
    translation, applied as orientation first, then translation. *)

type orientation =
  | R0
  | R90
  | R180
  | R270
  | MX  (** mirror about the x-axis (flip y) *)
  | MY  (** mirror about the y-axis (flip x) *)
  | MXR90
  | MYR90

type t = { orient : orientation; offset : Point.t }

val identity : t

val make : ?orient:orientation -> Point.t -> t

val apply_point : t -> Point.t -> Point.t

val apply_rect : t -> Rect.t -> Rect.t

val apply_polygon : t -> Polygon.t -> Polygon.t

(** [compose outer inner] applies [inner] first. *)
val compose : t -> t -> t

val invert : t -> t
