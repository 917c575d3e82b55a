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
    experiment. *)
val correct_selective :
  Litho.Model.t ->
  Model_opc.config ->
  Rule_opc.recipe ->
  Layout.Chip.t ->
  tile:int ->
  selected:Layout.Chip.gate_ref list ->
  Mask.t * Model_opc.stats

(** {1 Sharded model correction}

    [plan] prepares the full-chip model correction once: the drawn
    poly items, a spatial index over them, and the die tiling
    ([tiles], in canonical x-major order).  The plan is read-only
    after construction, so disjoint tile subsets can be corrected
    concurrently from several domains.

    [correct_tiles] corrects any subset of the plan's tiles (keeping
    the subset in canonical tile order) and returns the corrected
    polygons as (item id, polygon) overwrites plus the per-tile stats;
    [assemble] applies per-subset results — again in canonical tile
    order overall — to a fresh copy of the drawn items and merges the
    stats.  Correcting all tiles in one batch or in any ordered
    partition of batches yields byte-identical masks and stats, which
    is what Core.Flow's sharded OPC relies on.  [correct] with a
    [Model] style is [plan] + one [correct_tiles] batch + [assemble].

    [correct_tiles ?pool] hands [pool] to {!Model_opc.correct} for
    every tile, which simulates each pass's stale sim tiles on it; the
    correction tiles themselves still run in order on the caller.
    Results are byte-identical with or without a pool and for any
    worker count (see {!Model_opc.correct}). *)

type plan

val plan : Litho.Model.t -> Layout.Chip.t -> tile:int -> plan

(** The correction tiles in canonical (x-major, then y) order. *)
val tiles : plan -> Geometry.Rect.t list

val correct_tiles :
  ?pool:Exec.Pool.t ->
  Litho.Model.t ->
  Model_opc.config ->
  ?want:(Geometry.Polygon.t -> bool) ->
  plan ->
  Geometry.Rect.t list ->
  (int * Geometry.Polygon.t) list * Model_opc.stats list

val assemble :
  plan ->
  ((int * Geometry.Polygon.t) list * Model_opc.stats list) list ->
  Mask.t * Model_opc.stats
