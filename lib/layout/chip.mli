(** Placed designs: instances of leaf cells under placement transforms,
    with flattening and gate-site enumeration.

    Placements are restricted to row orientations (R0 and MX) so that
    every gate's critical dimension stays horizontal, matching the
    single-orientation poly style of the node. *)

type instance = {
  iname : string;
  cell : Cell.t;
  placement : Geometry.Transform.t;
}

(** A transistor gate site in chip coordinates. *)
type gate_ref = {
  inst : string;
  cell_name : string;
  tname : string;
  kind : Cell.mos_kind;
  gate : Geometry.Rect.t;  (** placed drawn gate region *)
  drawn_l : int;
  drawn_w : int;
  bent : bool;
}

type t

val create : Tech.t -> t

val tech : t -> Tech.t

(** [add t ~iname ~cell placement] adds an instance.
    @raise Invalid_argument on duplicate instance names or non-row
    orientations. *)
val add : t -> iname:string -> cell:Cell.t -> Geometry.Transform.t -> unit

val instances : t -> instance list

(** [move t ~inst ~dx ~dy] is a new chip with instance [inst]
    translated by (dx, dy) nm and every other instance in place, in
    the same order, so flattened shapes keep their order.  [t] is
    unchanged. *)
val move : t -> inst:string -> dx:int -> dy:int -> t

val num_instances : t -> int

val find_instance : t -> string -> instance option

(** Bounding box of all placed instances; [None] when empty. *)
val die : t -> Geometry.Rect.t option

(** All shapes of one layer, flattened to chip coordinates. *)
val flatten_layer : t -> Layer.t -> Geometry.Polygon.t list

(** Shapes of [layer] intersecting the window, in chip coordinates,
    from a spatial index of the layer built on first use and cached. *)
val shapes_in : t -> Layer.t -> Geometry.Rect.t -> Geometry.Polygon.t list

(** Every transistor gate site on the chip. *)
val gates : t -> gate_ref list

(** Key uniquely naming a gate site: ["inst/tname"]. *)
val gate_key : gate_ref -> string

val pp : Format.formatter -> t -> unit
