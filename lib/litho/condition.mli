(** Exposure process conditions and process windows.

    A condition is a (dose, defocus) pair.  Dose is relative to nominal
    (1.0); defocus is in nanometres of focal error.  The printed region
    under a condition is [dose * intensity >= threshold]. *)

type t = { dose : float; defocus : float }

val nominal : t

(** The largest |defocus|, nm, the optical model is built for:
    {!Model.create} sizes its halo so that tile boundaries cannot bias
    interior intensity up to this defocus. *)
val max_defocus : float

(** @raise Invalid_argument if [dose] or [defocus] is not finite,
    [dose] is not positive, or |[defocus]| is above {!max_defocus}. *)
val make : dose:float -> defocus:float -> t

(** Rectangular dose x defocus grid, inclusive of endpoints.
    [grid ~dose_range:(0.95, 1.05) ~dose_steps:3 ~defocus_range:(0., 150.) ~defocus_steps:3]
    gives 9 conditions. *)
val grid :
  dose_range:float * float ->
  dose_steps:int ->
  defocus_range:float * float ->
  defocus_steps:int ->
  t list

(** The classic corner set: nominal plus the four extreme corners of
    the given ranges. *)
val corners :
  dose_range:float * float -> defocus_range:float * float -> t list

val pp : Format.formatter -> t -> unit
