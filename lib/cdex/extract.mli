(** Tiled CD extraction over a chip: the design-based metrology engine.

    Gates are grouped into tiles; each tile's mask neighbourhood is
    simulated once and every gate in the tile is measured with
    [slices] horizontal cutlines across its width.  The mask is
    supplied as a window query so the same engine measures drawn
    layouts, rule-OPC masks and model-OPC masks. *)

type mask_source = Geometry.Rect.t -> Geometry.Polygon.t list

(** The drawn poly layer of a chip as a mask source. *)
val drawn_source : Layout.Chip.t -> mask_source

(** [extract model condition ~mask ~gates ()] measures every gate.
    [slices] cutlines per gate (default 7); [tile] tile edge in nm
    (default 6000); [search] CD search reach in nm (default 220).
    Tiles are simulated and measured as tasks on [pool], by default
    the shared one-domain pool {!Exec.Pool.sequential} (the mask
    source must tolerate concurrent window queries; its lazy index,
    if any, is warmed on the calling domain first).  The record list
    and its order are bit-identical for any worker count. *)
val extract :
  ?pool:Exec.Pool.t ->
  Litho.Model.t ->
  Litho.Condition.t ->
  mask:mask_source ->
  gates:Layout.Chip.gate_ref list ->
  ?slices:int ->
  ?tile:int ->
  ?search:float ->
  unit ->
  Gate_cd.t list

(** {1 Region scoping}

    The timing service answers "CDs for region R" against warm
    whole-chip state; these are the scoping predicates it (and any
    other region-granular client) composes with {!extract} or with an
    already-extracted record list, instead of re-deriving the
    gate-to-region rule from geometry internals. *)

(** [in_region ~region g] holds when the placed gate rect of [g]
    touches [region] (closed-rectangle contact, matching
    {!Geometry.Rect.touches}). *)
val in_region : region:Geometry.Rect.t -> Layout.Chip.gate_ref -> bool

(** [gates_in ~region gates] filters [gates] to the sites touching
    [region], preserving input order — so extraction over the result
    is the region-scoped restriction of extraction over [gates]. *)
val gates_in :
  region:Geometry.Rect.t -> Layout.Chip.gate_ref list -> Layout.Chip.gate_ref list
