(** Logical cell library: the electrical view of the standard cells.

    Each entry records the series-stack depths and finger counts that
    the delay model needs, and the names of the layout transistors the
    cell maps to (so CD back-annotation can find them).  Names are
    shared with {!Layout.Stdcell}. *)

type t = {
  name : string;
  inputs : string list;
  stack_n : int;  (** worst-case series NMOS depth *)
  stack_p : int;  (** worst-case series PMOS depth *)
  fingers : int;  (** parallel drive multiplier *)
  stages : int;  (** internal inverting stages (BUF/XOR are 2) *)
  layout_cell : string;
  nmos_names : string list;  (** layout transistor names, e.g. ["MN0"] *)
  pmos_names : string list;
}

val all : t list

(** @raise Not_found for unknown cells. *)
val find : string -> t

val mem : string -> bool
