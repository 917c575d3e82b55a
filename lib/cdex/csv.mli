(** CSV interchange of extracted gate CDs — the flat file a real flow
    hands from the metrology side to the timing side. *)

val header : string

(** One row per gate-CD record; slice CDs are semicolon-separated in
    the last field.  Dose, defocus and the CDs are written as ["%h"]
    hex floats, so {!read} round-trips every float bit-for-bit — the
    checkpoint layer and [potx cdcmp] depend on this. *)
val write : Format.formatter -> Gate_cd.t list -> unit

(** Parse what [write] produced (the header line is required); a
    float field may also be written in decimal.
    @raise Failure on malformed input, naming the source and line:
    ["<src>, line <n>: <cause>"].  [src] describes where the text
    came from (default ["csv"]); {!load_file} passes its path. *)
val read : ?src:string -> string -> Gate_cd.t list

val save_file : string -> Gate_cd.t list -> unit

(** {!read} on the file contents, with [~src] set to the path. *)
val load_file : string -> Gate_cd.t list
