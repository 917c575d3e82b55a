(** Hotspot detection: locations where the printed pattern misses the
    drawn intent under some process condition badly enough to matter.
    Built on ORC: every ORC violation becomes a hotspot with a severity
    (|EPE| in nm, or 99 nm when the feature vanished). *)

type t = {
  at : Geometry.Point.t;
  severity : float;  (** nm of edge placement error *)
  condition : Litho.Condition.t;
}

(** [on_chip model orc_config chip ~mask] runs ORC over the whole die
    against the drawn poly layer and converts violations. *)
val on_chip :
  Litho.Model.t -> Opc.Orc.config -> Layout.Chip.t -> mask:Opc.Mask.t -> t list

(** Deduplicate hotspots closer than [radius] to a worse one. *)
val prune : radius:int -> t list -> t list
