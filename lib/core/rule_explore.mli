(** Manufacturability-driven design-rule exploration.

    The prequel work by the same authors (Capodieci, Gupta, Kahng,
    Sylvester, Yang, DAC 2004) trades layout density against
    printability by sweeping individual design-rule values and
    measuring both sides.  This module reruns the litho/OPC/extraction
    stack for each rule value of a swept knob and reports density
    (reference-cell area) against printability (post-OPC EPE, ORC
    violations, extracted gate-CD statistics). *)

type knob =
  | Poly_pitch
  | Poly_endcap
  | Gate_length

type sample = {
  knob : knob;
  value : int;  (** rule value, nm *)
  cell_area_um2 : float;  (** INV+NAND2+NOR2 footprint, um^2 *)
  opc_rms_epe : float;  (** post-OPC ORC rms EPE over the test block *)
  orc_violations : int;
  cd_mean : float;  (** extracted gate CD mean at the silicon condition *)
  cd_sigma : float;
  printed_fraction : float;  (** gates with all cutlines printing *)
}

(** [sweep config knob ~values ~block] evaluates each rule value on a
    deterministic [block]-cell layout.  Each value gets its own
    technology (and freshly calibrated litho model when the knob
    affects the reference feature). *)
val sweep : Flow.config -> knob -> values:int list -> block:int -> sample list

val pp_table : Format.formatter -> sample list -> unit
