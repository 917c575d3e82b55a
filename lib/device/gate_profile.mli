(** Printed-gate profiles: the per-slice channel lengths of a
    non-rectangular (as-printed) transistor gate.

    A profile lists slices across the device width; each slice has a
    width (its share of W) and a local printed channel length.  Profiles
    come from CD extraction cutlines or from synthetic shapes in
    tests. *)

type slice = { width : float;  (** nm along W *) length : float  (** nm along L *) }

type t = { slices : slice list }

(** Rectangular profile: one slice.
    @raise Invalid_argument on a non-positive dimension. *)
val rectangular : w:float -> l:float -> t

(** [of_cds ~w cds] distributes the total width equally over the
    measured CDs.
    @raise Invalid_argument on no CDs or a non-positive dimension. *)
val of_cds : w:float -> float list -> t

val total_width : t -> float

(** Width-weighted mean length. *)
val mean_length : t -> float

val min_length : t -> float

val max_length : t -> float
