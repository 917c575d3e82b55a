(** Compact MOSFET model: alpha-power-law on-current with exponential
    short-channel Vth roll-off, and subthreshold leakage.

    The model's job in this reproduction is to carry the two CD
    sensitivities that drive the paper's results: a mildly nonlinear
    CD-to-drive-current (hence delay) dependence, and a strongly
    nonlinear (exponential) CD-to-leakage dependence.  Parameter values
    are representative of a 90 nm node, not fitted to any foundry. *)

type params = {
  vdd : float;  (** V *)
  vth0 : float;  (** long-channel threshold, V *)
  alpha : float;  (** velocity-saturation exponent *)
  k_drive : float;  (** uA per square at 1 V overdrive *)
  sce_v : float;  (** Vth roll-off amplitude, V *)
  sce_lambda : float;  (** roll-off decay length, nm *)
  i_leak0 : float;  (** leakage prefactor, uA per square *)
  n_sub : float;  (** subthreshold slope factor *)
  c_gate : float;  (** gate capacitance, fF per nm^2 *)
  c_overlap : float;  (** overlap capacitance, fF per nm of width *)
}

(** Representative parameter sets for the 90 nm-like node. *)
val nmos_90 : params

val pmos_90 : params

(** Threshold voltage at channel length [l] (nm). *)
val vth : params -> l:float -> float

(** Saturation drive current, uA, for a [w] x [l] nm device. *)
val ion : params -> w:float -> l:float -> float

(** Subthreshold off-current, uA. *)
val ioff : params -> w:float -> l:float -> float

(** Gate input capacitance, fF. *)
val cgate : params -> w:float -> l:float -> float

(** Equivalent switching resistance Vdd / Ion, in kOhm (uA, V). *)
val req : params -> w:float -> l:float -> float
