(** Chip-level OPC driver: tiles the die, corrects each tile's poly
    shapes with surrounding shapes as frozen context, and assembles the
    full-chip corrected mask.  The frozen-context approximation (the
    context is drawn, not corrected) mirrors hierarchical production
    flows and is recorded in DESIGN.md. *)

type style =
  | None_  (** identity: mask = drawn layout *)
  | Rule of Rule_opc.recipe
  | Model of Model_opc.config

(** [correct litho_model style chip ~tile] corrects the poly layer.
    [tile] is the tile edge in nm (2000–20000 is sensible).  The stats
    are all-zero for [None_] and [Rule]. *)
val correct :
  Litho.Model.t -> style -> Layout.Chip.t -> tile:int -> Mask.t * Model_opc.stats

(** [correct_selective litho_model config chip ~tile ~selected] runs
    model-based OPC only on poly shapes that intersect a gate in
    [selected] (rule-based bias elsewhere) — the paper's DFM feedback
    experiment.  [pool] is handed to {!correct_tiles}; the result is
    byte-identical for any worker count. *)
val correct_selective :
  ?pool:Exec.Pool.t ->
  Litho.Model.t ->
  Model_opc.config ->
  Rule_opc.recipe ->
  Layout.Chip.t ->
  tile:int ->
  selected:Layout.Chip.gate_ref list ->
  Mask.t * Model_opc.stats

(** {1 Tiled model correction}

    [plan] prepares the full-chip model correction once: the drawn
    poly items, a spatial index over them, and the die tiling
    ([tiles], in canonical x-major order).  The plan is read-only
    after construction, so its tiles can be corrected concurrently
    from several domains.

    [correct_tiles] corrects the plan's tiles and returns one
    {!tile_result} per tile that holds a target, in canonical order;
    [assemble] applies them, in that order, to a fresh copy of the
    drawn items and merges the stats.  [correct] with a [Model] style
    is [plan] + [correct_tiles] + [assemble].

    [correct_tiles ?pool] finds every tile's targets, context and key
    on the caller in tile order, then runs the corrections of the
    tiles it does not reuse as tasks on [pool] ([opc.correct_tiles]
    label), by default the shared one-domain pool
    {!Exec.Pool.sequential}.  Each task hands the same pool to
    {!Model_opc.correct}, which simulates each pass's stale sim tiles
    on it as a nested job.  Results are byte-identical for any worker
    count (see {!Model_opc.correct} and {!Exec.Pool}). *)

type plan

val plan : Litho.Model.t -> Layout.Chip.t -> tile:int -> plan

(** The correction tiles in canonical (x-major, then y) order. *)
val tiles : plan -> Geometry.Rect.t list

(** One corrected tile: its target polygons after correction, its
    stats, and a content key of its inputs.  {!Model_opc.correct}
    reads exactly two inputs of a tile: its targets (the polygons
    whose bbox centre lies in the tile) and its frozen drawn context
    (every other polygon within the litho halo).  The key is a digest
    of the targets' geometry in target-id order and of the context's
    geometry in the order the plan's spatial query returns it, which
    is the mask paint order.  It holds no item ids and no tile
    position, so the same inputs key the same on another plan, for
    instance the plan of a chip with one instance moved.  The model
    and the OPC config are not in the key: a result may only be
    reused under the model and config that produced it. *)
type tile_result

(** [true] when the result was taken from [?reuse] rather than
    corrected. *)
val reused : tile_result -> bool

(** [correct_tiles ?reuse] takes each tile whose key matches a result
    in [reuse] from that result (its polygons and stats, paired with
    this plan's target ids by position) and corrects the others;
    every reuse counts one [opc.reused_tiles].  The results, and so
    the assembled mask and stats, are byte-identical to correcting
    every tile, provided [reuse] came from [correct_tiles] under the
    same model and [config].  Nothing is stored: the caller owns the
    results it passes back. *)
val correct_tiles :
  ?pool:Exec.Pool.t ->
  ?reuse:tile_result list ->
  Litho.Model.t ->
  Model_opc.config ->
  ?want:(Geometry.Polygon.t -> bool) ->
  plan ->
  tile_result list

val assemble : plan -> tile_result list -> Mask.t * Model_opc.stats
