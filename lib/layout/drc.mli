(** Design-rule checking on flattened layers.

    The checker covers the rule classes the generated layouts can
    violate: minimum width, minimum spacing between distinct shapes,
    and contact enclosure.  It is intentionally shape-based (not
    edge-based) which matches the rectangle-dominated cell generator. *)

type violation = {
  rule : string;
  layer : Layer.t;
  at : Geometry.Rect.t;  (** marker box around the violation *)
  measured : int;
  required : int;
}

type report = { checked : int; violations : violation list }

(** Check min-width of every shape on a layer (bbox min dimension of
    each decomposed rectangle). *)
val check_width : Tech.t -> Layer.t -> Geometry.Polygon.t list -> violation list

(** Check pairwise spacing between distinct shapes on a layer. *)
val check_spacing : Tech.t -> Layer.t -> Geometry.Polygon.t list -> violation list

(** Check that every contact/via is enclosed by [by] with the required
    margin on all sides. *)
val check_enclosure :
  Tech.t ->
  contacts:Geometry.Polygon.t list ->
  by:Layer.t ->
  enclosing:Geometry.Polygon.t list ->
  violation list

(** Run all checks relevant to a chip's poly/active/contact/metal1. *)
val check_chip : Chip.t -> report

val pp_report : Format.formatter -> report -> unit
