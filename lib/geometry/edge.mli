(** Directed axis-aligned edges of rectilinear polygons.

    An edge runs from [a] to [b]; exactly one coordinate differs.  For a
    counter-clockwise polygon the interior lies to the left of the edge
    direction, so the outward normal points to the right. *)

type orientation = Horizontal | Vertical

type t = { a : Point.t; b : Point.t }

(** @raise Invalid_argument if the points are equal or not axis aligned. *)
val make : Point.t -> Point.t -> t

val orientation : t -> orientation

val length : t -> int

val midpoint : t -> Point.t

(** Unit outward normal, assuming counter-clockwise winding. *)
val outward_normal : t -> Point.t

(** Coordinate shared by both endpoints: [y] for horizontal edges, [x]
    for vertical ones. *)
val perp_coord : t -> int

(** Tangential span [(lo, hi)] with [lo <= hi]: the [x] range for
    horizontal edges, the [y] range for vertical ones. *)
val span : t -> int * int

(** [shift e d] translates the edge by [d] along its outward normal
    (negative [d] moves inward). *)
val shift : t -> int -> t

(** [split e ~max_len] cuts the edge into collinear fragments of at most
    [max_len], preserving direction and order from [a] to [b].  The
    first and last fragments absorb any remainder so fragments never
    drop below [max_len / 2] unless the edge itself is shorter. *)
val split : t -> max_len:int -> t list

(** [sample e ~step] returns points along the edge every [step]
    nanometres, always including both endpoints. *)
val sample : t -> step:int -> Point.t list
