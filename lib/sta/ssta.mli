(** Statistical static timing analysis (SSTA) with first-order
    canonical delay forms.

    Where {!Montecarlo} samples the channel-length variation model
    (one global die-to-die draw plus an independent local draw per
    gate) and re-runs {!Timing} per trial, this module propagates the
    {e distribution} analytically: each arc delay becomes a canonical
    form [mean + a_g * G + a_i * I] (G the shared global variable, I an
    aggregated independent component), sums are exact, and max uses
    Clark's Gaussian approximation ({!Stats.Gaussian.max_moments}).
    One pass over the timing graph replaces thousands of Monte-Carlo
    trials; {!Montecarlo} stays the differential-test oracle (see the
    tolerance contract in DESIGN.md) and the fallback for non-Gaussian
    tails.

    The variation model deliberately mirrors {!Montecarlo}: a drawn
    channel-length shift [dl = G + I] applied equally to pull-down and
    pull-up lengths on top of the per-instance base lengths, clamped
    at 20 nm.  Delay sensitivities to [dl] come from central finite
    differences of {!Circuit.Delay_model.gate_delay} around the mean
    point; slews propagate at their mean values (their variation is a
    second-order effect on delay through the derate term).

    Everything here is closed-form arithmetic — no RNG — so the output
    is bit-identical for any worker-domain or cache setting. *)

type config = {
  sigma_global : float;  (** nm, die-to-die channel-length sigma *)
  sigma_local : float;  (** nm, independent per-gate-instance sigma *)
  mean_shift : float;  (** nm, systematic CD offset *)
  clock_period : float;  (** ps *)
}

(** First-order canonical Gaussian form: value = [mean + g*G + ind*I]
    with [G, I ~ N(0,1)], [G] shared by every form and [I] independent
    per form (an aggregate — correlation of local components through
    reconvergent paths is dropped, which is the standard canonical
    approximation). *)
type canonical = { mean : float; g : float; ind : float }

val mean : canonical -> float

(** Total standard deviation, [hypot g ind]. *)
val sigma : canonical -> float

(** Exact sum of two canonical forms. *)
val add : canonical -> canonical -> canonical

(** Clark max refit to a canonical form.  The global coefficient is
    tightness-blended and the independent part absorbs the variance
    remainder. *)
val cmax : canonical -> canonical -> canonical

(** [tightness a b] is P(a >= b) under the joint law. *)
val tightness : canonical -> canonical -> float

type endpoint = {
  net : Circuit.Netlist.net;
  arrival : canonical;  (** latest-arrival distribution, ps *)
  slack_mean : float;  (** ps *)
  slack_sigma : float;  (** ps *)
  criticality : float;
      (** probability this endpoint carries the chip's worst arrival;
          sums to 1 over the endpoint cut (up to rounding) *)
}

type t = {
  endpoints : endpoint list;
      (** sorted by criticality (descending), ties by mean slack then
          net id — deterministic *)
  worst : canonical;  (** max arrival over all endpoints, ps *)
  clock_period : float;
}

(** Statistical worst slack: mean and sigma of [clock - max arrival]. *)
val wns_mean : t -> float

val wns_sigma : t -> float

(** P(worst slack < 0) under the Gaussian refit of the max arrival. *)
val fail_probability : t -> float

(** [analyze env netlist ~loads config] propagates canonical arrival
    forms through the (topologically ordered) netlist.  [lengths_of]
    gives per-instance base lengths (e.g. a post-OPC annotation);
    [None]/absent means drawn — exactly {!Montecarlo}'s base point.
    [sensitivity_step] is the finite-difference half-step in nm
    (default 0.5). *)
val analyze :
  Circuit.Delay_model.env ->
  Circuit.Netlist.t ->
  loads:(Circuit.Netlist.net -> float) ->
  ?lengths_of:(string -> Circuit.Delay_model.lengths option) ->
  ?input_slew:float ->
  ?sensitivity_step:float ->
  config ->
  t

(** {1 Process-window distribution fitting} *)

type fit = {
  shift : float;  (** nm, mean channel-length delta over the window *)
  global_sigma : float;
      (** nm, sigma of the across-gates mean per condition — the
          component all gates see together *)
  local_sigma : float;
      (** nm, RMS per-gate residual after removing each condition's
          common shift — differing through-window response of bent /
          dense / iso gate contexts *)
  sites : int;  (** gates fitted *)
  conditions : int;  (** process-window samples *)
}

(** [fit dl] decomposes a process-window sample matrix into global and
    independent components.  [dl.(c).(g)] is gate [g]'s channel-length
    delta (nm) at window condition [c] relative to the base extraction;
    rows must be rectangular.  Population (1/n) statistics throughout.
    @raise Invalid_argument on an empty or ragged matrix. *)
val fit : float array array -> fit

val pp_fit : Format.formatter -> fit -> unit

val pp_endpoint : Format.formatter -> endpoint -> unit

val pp_summary : Format.formatter -> t -> unit
