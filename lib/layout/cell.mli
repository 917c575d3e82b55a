(** Leaf cells: geometry plus the transistor records that tie gate
    shapes back to the logical netlist. *)

type shape = { layer : Layer.t; poly : Geometry.Polygon.t }

type mos_kind = Nmos | Pmos

type transistor = {
  tname : string;  (** unique within the cell, e.g. "MN0" *)
  kind : mos_kind;
  gate : Geometry.Rect.t;  (** drawn gate region: poly ∩ active *)
  drawn_l : int;  (** drawn channel length, nm *)
  drawn_w : int;  (** drawn channel width, nm *)
  bent : bool;  (** gate poly bends within litho interaction range *)
}

type t = {
  cname : string;
  width : int;
  height : int;
  shapes : shape list;
  transistors : transistor list;
  pins : (string * Layer.t * Geometry.Rect.t) list;
}

val make :
  cname:string ->
  width:int ->
  height:int ->
  shapes:shape list ->
  transistors:transistor list ->
  pins:(string * Layer.t * Geometry.Rect.t) list ->
  t

val bbox : t -> Geometry.Rect.t

(** Shapes restricted to one layer. *)
val shapes_on : t -> Layer.t -> Geometry.Polygon.t list

val find_transistor : t -> string -> transistor option
