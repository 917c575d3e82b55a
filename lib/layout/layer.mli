(** Mask layers of the simplified front-end-of-line stack. *)

type t =
  | Nwell
  | Active
  | Poly
  | Contact
  | Metal1
  | Via1
  | Metal2

val all : t list

val name : t -> string

val of_name : string -> t option

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
