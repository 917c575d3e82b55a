(** ASCII table rendering for experiment reports. *)

(** [table ppf ~title ~header rows] prints a fixed-width table; column
    widths adapt to content. *)
val table :
  Format.formatter -> title:string -> header:string list -> string list list -> unit

val pct : float -> string

val ps : float -> string

val nm : float -> string
