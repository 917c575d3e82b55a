(** Regions: finite unions of axis-aligned rectangles with exact
    boolean operations.

    A region is kept in a canonical form — a maximal-band vertical slab
    decomposition — so that structural equality of canonical forms
    coincides with set equality of the underlying point sets.  All
    operations are exact integer scanline sweeps. *)

type t

val empty : t

val of_rect : Rect.t -> t

(** [of_rects rs] is the union of all (possibly overlapping) input
    rectangles; empty rectangles are dropped. *)
val of_rects : Rect.t list -> t

val of_polygon : Polygon.t -> t

(** Canonical disjoint rectangle decomposition (vertical slabs, merged
    vertically when x-spans repeat). *)
val to_rects : t -> Rect.t list

val is_empty : t -> bool

val area : t -> int

val bbox : t -> Rect.t option

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

(** Symmetric difference — useful as a geometric distance between a
    target layer and a printed contour. *)
val xor : t -> t -> t

val contains_point : t -> Point.t -> bool

val translate : t -> Point.t -> t

(** [inflate t d] Minkowski-grows every rectangle by [d] then re-unions;
    for [d >= 0] this over-approximates true Euclidean dilation by at
    most corner squares, which is the conventional DRC halo. *)
val inflate : t -> int -> t

val equal : t -> t -> bool
