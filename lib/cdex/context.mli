(** Layout-context classification of gate sites, for the per-context
    ΔCD experiment (F2): a gate's printed CD error correlates with its
    poly neighbourhood. *)

type t =
  | Bent  (** gate poly has a bend within litho range (strapped) *)
  | Dense  (** nearest parallel poly within ~1 pitch *)
  | Mid  (** nearest within ~2 pitches *)
  | Iso  (** nothing within 2 pitches *)

val name : t -> string

val all : t list

(** Classify a gate on its chip (nearest distinct poly shape measured
    from the gate's own poly stripe, horizontally). *)
val classify : Layout.Chip.t -> Layout.Chip.gate_ref -> t
