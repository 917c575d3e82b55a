(** Equivalent rectangular gate length for non-rectangular transistors
    (the Poppe–Wu–Neureuther–Capodieci reduction).

    A printed gate is modelled as parallel slice transistors.  The
    delay-equivalent length [l_on] is the rectangular L whose
    drive current matches the summed slice on-currents; the
    leakage-equivalent [l_off] matches the summed slice off-currents.
    Because leakage is exponential in local L, [l_off] is dominated by
    the narrowest slices and is always <= [l_on] for mixed profiles. *)

type t = {
  l_on : float;  (** delay-equivalent channel length, nm *)
  l_off : float;  (** leakage-equivalent channel length, nm *)
  ion_total : float;  (** uA *)
  ioff_total : float;  (** uA *)
}

(** [reduce params profile] computes both equivalents by bisection on
    the compact model.  Monotonicity of ion/ioff in L makes the
    solution unique; the search bracket is [8, 400] nm and clamps at
    the ends. *)
val reduce : Mosfet.params -> Gate_profile.t -> t

(** Uniform-averaging baseline (what a naive flow would use): both
    equivalents set to the width-weighted mean CD. *)
val reduce_naive : Mosfet.params -> Gate_profile.t -> t
