(** Plain-text geometry interchange.

    One shape per line: the layer name followed by the vertex
    coordinate list (x y pairs, integer nm).  Lines starting with [#]
    and blank lines are ignored.  This is deliberately trivial — it
    exists so masks, flattened layouts and test fixtures can be saved,
    diffed and reloaded without a GDS dependency. *)

(** [write_shapes ppf shapes] writes one line per polygon. *)
val write_shapes :
  Format.formatter -> (Layer.t * Geometry.Polygon.t) list -> unit

(** [read_shapes text] parses what [write_shapes] wrote.
    @raise Failure on malformed lines (with a line number). *)
val read_shapes : string -> (Layer.t * Geometry.Polygon.t) list

(** Flatten every layer of a chip and write it. *)
val write_chip : Format.formatter -> Chip.t -> unit
