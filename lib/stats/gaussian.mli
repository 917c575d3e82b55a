(** Gaussian moment helpers for analytic (closed-form) statistics.

    Everything here is deterministic arithmetic — no sampling — so
    results are bit-identical across worker counts and platforms with
    IEEE doubles.  [Ssta] builds its canonical-form add/max on these;
    the tolerances of the approximations are part of the SSTA-vs-MC
    tolerance contract in DESIGN.md. *)

(** Standard normal CDF at [x] (Abramowitz & Stegun 7.1.26 rational
    approximation of erf; absolute error <= 1.5e-7). *)
val cdf : float -> float

(** Moments of [max(X, Y)] for jointly Gaussian [X ~ N(mean1, sigma1^2)]
    and [Y ~ N(mean2, sigma2^2)] with correlation [rho] — Clark's 1961
    approximation, exact for the first two moments of the max itself
    (the Gaussian *refit* of the max is the approximation). *)
type max_moments = {
  max_mean : float;
  max_var : float;  (** >= 0 (clamped against rounding) *)
  tightness : float;  (** P(X >= Y) under the joint law *)
}

(** @raise Invalid_argument on negative sigmas or |rho| > 1. *)
val max_moments :
  mean1:float ->
  sigma1:float ->
  mean2:float ->
  sigma2:float ->
  rho:float ->
  max_moments
