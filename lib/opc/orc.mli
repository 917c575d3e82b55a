(** Post-OPC verification (optical rule check).

    Samples EPE control sites along the drawn target boundary and
    simulates the corrected mask across a set of process conditions,
    flagging sites whose printed edge misses the target by more than
    the tolerance, or where the feature fails to print at all. *)

type config = {
  epe_tolerance : float;  (** nm *)
  conditions : Litho.Condition.t list;
  site_step : int;  (** control-site spacing along edges, nm *)
  search : float;
}

val default_config : Layout.Tech.t -> config

type violation_kind = Epe_over | Not_printed

type violation = {
  at : Geometry.Point.t;
  kind : violation_kind;
  epe : float;  (** 0 for [Not_printed] *)
  condition : Litho.Condition.t;
}

type report = {
  sites : int;  (** control sites x conditions evaluated *)
  violations : violation list;
  max_epe : float;
  rms_epe : float;
}

(** [verify model config ~mask ~drawn ~window] checks every drawn shape
    whose bbox centre lies in [window]. *)
val verify :
  Litho.Model.t ->
  config ->
  mask:Mask.t ->
  drawn:Geometry.Polygon.t list ->
  window:Geometry.Rect.t ->
  report
