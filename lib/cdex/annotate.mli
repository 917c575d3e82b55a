(** Back-annotation: from extracted gate CDs to the per-transistor
    equivalent channel lengths that timing re-analysis consumes.

    Keys are [Layout.Chip.gate_key] strings ("inst/tname"), so the
    netlist side can look up its devices by instance name without any
    dependency on geometry. *)

type entry = {
  gate : Layout.Chip.gate_ref;
  l_on : float;  (** delay-equivalent channel length, nm *)
  l_off : float;  (** leakage-equivalent channel length, nm *)
  printed : bool;
}

type t

val size : t -> int

(** [build ~nmos ~pmos gate_cds] reduces every measured gate profile
    with the matching device polarity.  Unprinted gates are recorded
    with [printed = false] and drawn lengths (a catastrophic gate is a
    yield problem, not a timing number). *)
val build :
  nmos:Device.Mosfet.params -> pmos:Device.Mosfet.params -> Gate_cd.t list -> t

(** Identity annotation at drawn dimensions, for the baseline view. *)
val drawn : Layout.Chip.t -> t

val find : t -> string -> entry option

(** Devices whose [l_on] deviates from drawn by at least [threshold] nm. *)
val outliers : t -> threshold:float -> entry list

val iter : t -> (string -> entry -> unit) -> unit

val fold : t -> init:'a -> f:(string -> entry -> 'a -> 'a) -> 'a
