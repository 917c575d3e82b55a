(** Per-gate extracted critical dimensions.

    One record per (gate site, process condition): the printed channel
    length measured on several cutlines across the device width. *)

type t = {
  gate : Layout.Chip.gate_ref;
  condition : Litho.Condition.t;
  cds : float list;  (** slice CDs bottom-to-top across W; printed slices only *)
  slices_requested : int;
  printed : bool;  (** every requested slice printed *)
}

(** Width-weighted printed profile, or [None] if nothing printed. *)
val profile : t -> Device.Gate_profile.t option

(** Mean of measured slice CDs.  @raise Invalid_argument when none. *)
val mean_cd : t -> float

val min_cd : t -> float

(** Printed-minus-drawn CD error at this site (mean slice). *)
val delta_cd : t -> float
