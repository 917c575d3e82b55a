(** Procedural standard-cell library.

    Cells are generated from a small column-based template so that the
    poly layer exhibits the proximity contexts the paper's extraction
    flow must distinguish: dense gates at minimum pitch, isolated
    gates, and gates with nearby poly bends (straps / hammer routing).

    Cell names follow the usual convention ([INV_X1], [NAND2_X1], ...)
    and match the logical library in [Circuit.Cell_lib]. *)

(** Library of cells for a technology, keyed by cell name. *)
val library : Tech.t -> (string * Cell.t) list

val find : Tech.t -> string -> Cell.t

(** Names of all generated cells. *)
val names : string list

(** Filler cell spanning [pitches] poly pitches, optionally with dummy
    (non-transistor) poly stripes. *)
val filler : Tech.t -> pitches:int -> dummy_poly:bool -> Cell.t
