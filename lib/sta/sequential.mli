(** Sequential (register-boundary) timing.

    A sequential design is a combinational netlist whose register
    boundaries appear as net pairs: each register contributes its Q net
    as a launch point (marked primary input) and its D net as a capture
    point (marked primary output).  Setup slack at a register is
    [T - clk_to_q - arrival(D) - setup]; an ideal, skewless clock is
    assumed, as in the paper's sign-off context. *)

type reg = {
  rname : string;
  d : Circuit.Netlist.net;  (** capture: data input *)
  q : Circuit.Netlist.net;  (** launch: register output *)
}

type design = {
  netlist : Circuit.Netlist.t;
  regs : reg list;
  setup : float;  (** ps *)
  clk_to_q : float;  (** ps *)
}

type slack = {
  reg : reg option;  (** [None] for a true primary output *)
  endpoint : Circuit.Netlist.net;
  arrival : float;
  setup_slack : float;
}

type t = {
  comb : Timing.t;  (** the underlying combinational analysis *)
  slacks : slack list;  (** most critical first *)
  wns : float;
  clock_period : float;
}

val default_setup : float

val default_clk_to_q : float

val analyze :
  design ->
  loads:(Circuit.Netlist.net -> float) ->
  delay:Timing.delay_fn ->
  clock_period:float ->
  t

(** Smallest clock period with non-negative worst setup slack (found by
    analysing once — slack is linear in T). *)
val min_period : design -> loads:(Circuit.Netlist.net -> float) -> delay:Timing.delay_fn -> float

(** [pipeline rng ~stages ~width] builds a [stages]-deep pipeline of
    random logic ranks separated by register boundaries. *)
val pipeline : Stats.Rng.t -> stages:int -> width:int -> design
