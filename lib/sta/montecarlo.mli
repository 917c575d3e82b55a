(** Monte-Carlo statistical timing over channel-length variation:
    a global (die-to-die) component plus an independent local
    (within-die) component per gate instance. *)

type config = {
  trials : int;
  sigma_global : float;  (** nm, one draw per trial *)
  sigma_local : float;  (** nm, one draw per gate per trial *)
  mean_shift : float;  (** systematic CD offset, nm (e.g. from extraction) *)
  clock_period : float;  (** ps *)
}

type summary = {
  wns : float array;  (** per-trial worst slack, ps *)
  critical_delay : float array;  (** per-trial critical arrival, ps *)
  endpoints : Circuit.Netlist.net array;  (** primary outputs, netlist order *)
  arrivals : float array array;
      (** [arrivals.(e).(trial)]: per-trial arrival at [endpoints.(e)],
          ps — the per-endpoint sample set the SSTA differential test
          diffs canonical moments against *)
}

(** [run env netlist ~loads config rng] draws one generator per trial
    from [rng] (sequentially, via {!Stats.Rng.split}), then evaluates
    the trials as tasks on [pool], by default the shared one-domain
    pool {!Exec.Pool.sequential}.  Each trial is a pure function of
    its derived generator, so the summary arrays are bit-identical for
    any worker count. *)
val run :
  ?pool:Exec.Pool.t ->
  Circuit.Delay_model.env ->
  Circuit.Netlist.t ->
  loads:(Circuit.Netlist.net -> float) ->
  config ->
  Stats.Rng.t ->
  summary

(** Fraction of trials with negative worst slack. *)
val fail_probability : summary -> float
