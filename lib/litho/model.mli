(** The optical/resist model.

    Partially coherent imaging is approximated by a small stack of
    Gaussian kernels (a SOCS-style decomposition): a sharp core that
    sets resolution, a negative mid-range lobe that produces proximity
    interactions (iso-dense bias, line-end pullback), and a weak
    long-range term standing in for flare/density loading.  Printing
    uses a constant-threshold resist: a point prints when
    [dose * intensity >= threshold].

    [calibrate] anchors the threshold so that the reference feature — a
    dense line at drawn gate length — prints exactly on target at the
    nominal condition, making all residual CD error a pure proximity /
    process-window signature, as in a centred production process.

    A model also carries how it is simulated: the convolution [engine]
    and whether simulations consult the tile cache (see {!Aerial}). *)

type kernel = { sigma : float;  (** nm *) weight : float }

(** Aerial convolution engine (see {!Aerial}). *)
type engine = Direct | Fft

type t = {
  kernels : kernel list;  (** weights normalised to sum to 1 *)
  threshold : float;
  step : float;  (** raster step, nm *)
  halo : int;  (** optical interaction halo, nm *)
  defocus_blur : float;  (** added sigma per nm defocus (quadrature) *)
  engine : engine;  (** engine {!Aerial.simulate} uses *)
  cache : bool;
      (** whether simulations consult {!Tile_cache.global}; hits are
          bit-identical to fresh simulations, so this changes wall time
          only *)
}

(** Three-kernel default stack for the 90 nm-like node. *)
val default_kernels : kernel list

(** Single-Gaussian stack for the kernel-count ablation. *)
val single_kernel : kernel list

(** [create ()] builds an uncalibrated model (threshold 0.5) on the
    [Direct] engine with the tile cache on. *)
val create :
  ?kernels:kernel list ->
  ?step:float ->
  ?defocus_blur:float ->
  ?engine:engine ->
  ?cache:bool ->
  unit ->
  t

(** Effective sigma of a kernel under defocus. *)
val effective_sigma : t -> kernel -> defocus:float -> float

(** Threshold that the intensity must reach under [condition] for a
    point to print ([threshold / dose]). *)
val printed_threshold : t -> Condition.t -> float

(** Replace the resist threshold (see {!Aerial.calibrate}).
    @raise Invalid_argument outside (0, 1). *)
val with_threshold : t -> float -> t

val pp : Format.formatter -> t -> unit
