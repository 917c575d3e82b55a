(** Liberty (.lib) export of the characterised NLDM library.

    Produces a syntactically conventional Liberty file (one template,
    worst-case arcs from every input pin) so the characterised tables
    can be inspected with standard tooling or diffed between runs.
    Units: 1ps / 1fF. *)

val write : Format.formatter -> Delay_model.env -> Nldm.library -> unit

val save_file : string -> Delay_model.env -> Nldm.library -> unit

(** [read text] parses a Liberty file in the dialect [write] produces
    back into an NLDM library (delay from [cell_rise], output slew from
    [rise_transition], input capacitance from the first input pin).
    @raise Failure on files this focused reader cannot interpret. *)
val read : string -> Nldm.library
