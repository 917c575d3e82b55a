(** Model-based OPC: iterative edge-placement-error feedback.

    Each iteration simulates the current mask, measures the signed EPE
    at every fragment's control site against the drawn target, and
    moves the fragment against the error with a damping factor.  The
    classic simulate-then-move loop of production OPC engines. *)

type config = {
  iterations : int;
  damping : float;  (** fraction of measured EPE corrected per pass *)
  max_len : int;  (** fragment length, nm *)
  line_end_max : int;
  max_displacement : int;  (** clamp, nm *)
  tolerance : float;  (** stop when max |EPE| falls below, nm *)
  search : float;  (** EPE search reach, nm *)
  mask_grid : int;  (** mask manufacturing grid: displacements snap to
                        multiples of this, nm (1 disables) *)
  min_mask_space : int;  (** mask-rule constraint: outward moves stop
                             when the gap to a neighbour shape would
                             drop below this, nm *)
  sim_tile : int;
      (** simulation tile edge for the EPE measurement grid, nm; [<= 0]
          simulates the whole correction window as one tile.  Every
          pass re-simulates every tile.  The tile grid defines the
          sampled intensity, so changing it perturbs EPE at the
          sub-0.1 nm level of the tile halo truncation *)
}

val default_config : Layout.Tech.t -> config

type stats = {
  iterations_run : int;
  max_epe : float;  (** final max |EPE| over resolved control sites *)
  rms_epe : float;
  sites : int;
  unresolved : int;  (** control sites with no printed edge in reach *)
}

(** [correct model config ~targets ~context] corrects [targets] with
    [context] shapes frozen but present in every simulation.  Returns
    the corrected target polygons (context is not included in the
    mask) and convergence statistics.  Correction happens at the
    nominal process condition, as in standard flows.

    Each sim tile owns its mask, scratch and intensity rasters for the
    whole correction ({!Litho.Aerial.buffers}), so a pass allocates no
    image, and its simulations never touch the tile cache
    ([Litho.Aerial.simulate ~into]).  Every pass simulates every sim
    tile, counting each in [opc.dirty_tiles], as tasks on [pool]
    ([opc.tiles] label), by default the shared one-domain pool
    {!Exec.Pool.sequential}.  Every task writes only its own tile's
    buffers, and the EPE measurement and fragment moves run on the
    calling domain.  The polygons, stats and [opc.dirty_tiles] count
    are therefore identical for any worker count and cache setting. *)
val correct :
  ?pool:Exec.Pool.t ->
  Litho.Model.t ->
  config ->
  targets:Geometry.Polygon.t list ->
  context:Geometry.Polygon.t list ->
  Geometry.Polygon.t list * stats

(** Merge per-tile stats into chip totals (site-weighted RMS, max of
    max, summed counts). *)
val merge_stats : stats list -> stats

val pp_stats : Format.formatter -> stats -> unit
