(** Axis-aligned rectangles on the integer nanometre grid.

    A rectangle is half-open in neither axis: it spans [lx..hx] x
    [ly..hy] with [lx <= hx] and [ly <= hy].  Degenerate (zero width or
    height) rectangles are permitted as construction intermediates but
    carry zero area. *)

type t = { lx : int; ly : int; hx : int; hy : int }

(** [make ~lx ~ly ~hx ~hy] normalises the corner order, so arguments may
    be given in any order along each axis. *)
val make : lx:int -> ly:int -> hx:int -> hy:int -> t

(** [of_corners a b] is the bounding rectangle of two points. *)
val of_corners : Point.t -> Point.t -> t

(** [of_center ~cx ~cy ~w ~h] centres a [w] x [h] rectangle at
    [(cx, cy)].  Width and height must be non-negative. *)
val of_center : cx:int -> cy:int -> w:int -> h:int -> t

val width : t -> int

val height : t -> int

val area : t -> int

val is_empty : t -> bool

val center : t -> Point.t

(** [inflate r d] grows the rectangle by [d] on all four sides; a
    negative [d] shrinks it (the result is clamped to a degenerate
    rectangle at the centre rather than inverting). *)
val inflate : t -> int -> t

val translate : t -> Point.t -> t

val contains_point : t -> Point.t -> bool

(** [contains a b] is true when [b] lies entirely inside [a]. *)
val contains : t -> t -> bool

(** [overlaps a b] is true when the interiors (strictly) intersect. *)
val overlaps : t -> t -> bool

(** [touches a b] is true when the closed rectangles share at least a
    point (edge or corner adjacency counts). *)
val touches : t -> t -> bool

(** [inter a b] is the intersection, or [None] when the closed
    rectangles are disjoint. *)
val inter : t -> t -> t option

(** [hull a b] is the smallest rectangle containing both. *)
val hull : t -> t -> t

(** [hull_of_list rs] is the bounding box of all rectangles.
    @raise Invalid_argument on the empty list. *)
val hull_of_list : t list -> t

(** Shortest axis-aligned separation between two disjoint rectangles:
    [separation a b = (dx, dy)] where each component is 0 when the
    projections overlap.  Used by spacing design-rule checks. *)
val separation : t -> t -> int * int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
