(** The paper's flow: place a netlist, OPC the poly layer, simulate
    patterning, extract per-gate CDs, back-annotate equivalent channel
    lengths, and re-run timing — then compare against the drawn and
    corner sign-off views.

    This is the public entry point of the library; the examples and
    every timing experiment in the bench harness go through it. *)

type opc_style = No_opc | Rule_opc | Model_opc

(** Uninhabited, so the [dist] field below can only be [None]. *)
type no_dist = |

type config = {
  tech : Layout.Tech.t;
  env : Circuit.Delay_model.env;
  opc_style : opc_style;
  opc_config : Opc.Model_opc.config;
  condition : Litho.Condition.t;
      (** the "silicon" condition extraction measures at — defaults to a
          small dose/defocus offset from the OPC model's nominal,
          modelling process-centring error *)
  cd_noise_gate : float;
      (** per-gate local CD variation (LER / local dose), nm 1-sigma;
          deterministic per gate site from [seed] *)
  cd_noise_slice : float;  (** per-cutline CD noise, nm 1-sigma *)
  clock_margin : float;  (** clock = drawn critical delay * (1 + margin) *)
  tile : int;  (** OPC/extraction tile edge, nm *)
  seed : int;  (** placement/filler randomisation seed *)
  slices : int;  (** CD cutlines per gate *)
  domains : int;
      (** worker domains of the OPC/extraction pool (default 1: one
          domain, the caller's); results are bit-identical for any
          value — see [Exec.Pool] *)
  shard : int;
      (** ignored; no flow code reads it.  Kept only because the
          benchmark's config literal ([perfbench/main.ml]) still sets
          [shard = 1]; the field goes when that line does *)
  cache : bool;
      (** content-addressed litho tile cache ([Litho.Tile_cache]):
          repeated cell patterns in extraction windows and dose-sweep
          conditions ({!extract_at} at a new dose, {!ssta}'s process
          window) reuse stored aerial images.  Model OPC's sim tiles
          never use it.  Hits are bit-identical to fresh simulations,
          so this changes wall time and memory only.  It reaches the
          simulator as the [cache] field of {!litho_model}'s model.
          Default on *)
  engine : Litho.Aerial.engine;
      (** ignored; no flow code reads it, and [Direct] is its only
          value.  Kept only because the benchmark's config literal
          ([perfbench/main.ml]) still sets [engine = Direct]; the field
          goes when that line does *)
  retry : Fault.retry;
      (** ignored; no flow code reads it.  Kept only because the
          benchmark's config literal ([perfbench/main.ml]) still sets
          [retry = Fault.no_retry]; the field goes when that line
          does *)
  checkpoint : Checkpoint.t option;
      (** stage-level checkpoint/resume (default [None]).  [run]
          checkpoints the post-OPC mask (stage ["opc"]) and the
          noise-applied CD records (stage ["cds"]); [run_selective]
          uses ["opc_sel"]/["cds_sel"] with the selected-gate set in
          the key.  Stages are keyed by a content hash of their
          inputs, and payloads use exact (hex-float) encodings, so a
          resumed run is byte-identical to a clean one and a stale or
          tampered checkpoint is rejected and recomputed *)
  dist : no_dist option;
      (** always [None]; no flow code reads it.  Kept only because
          the benchmark's config literal ([perfbench/main.ml]) still
          sets [dist = None]; the field goes when that line does *)
}

(** The default run: cache on, one domain, no checkpoint.  Reads no
    environment. *)
val default_config : unit -> config

(** Calibrated litho model for a config (memoised per technology),
    carrying the config's [cache]. *)
val litho_model : config -> Litho.Model.t

(** One complete run of the flow over a netlist. *)
type run = {
  config : config;
  netlist : Circuit.Netlist.t;
  chip : Layout.Chip.t;
  mask : Opc.Mask.t;
  opc_stats : Opc.Model_opc.stats;
  opc_tiles : Opc.Chip_opc.tile_result list;
      (** model OPC's per-correction-tile results in canonical tile
          order, as {!reopc_chip} reuses them.  [[]] under rule or no
          OPC, and when the OPC stage was loaded from a checkpoint:
          per-tile results are not checkpointed, so the first re-OPC
          of a resumed run corrects every tile (with byte-equal
          output).  Only this run's own OPC stage fills it; no query
          adds to it.  {!run_selective} keeps its base run's list,
          which still matches the full model OPC that {!reopc_chip}
          runs *)
  cds : Cdex.Gate_cd.t list;  (** extraction condition records *)
  annotation : Cdex.Annotate.t;
  loads : Circuit.Netlist.net -> float;
  clock_period : float;
  drawn_sta : Sta.Timing.t;  (** sign-off view: NLDM at drawn CDs *)
  post_opc_sta : Sta.Timing.t;  (** annotated view: extracted CDs *)
}

(** Row-place a netlist's cells (one layout instance per gate, same
    instance names). *)
val place : config -> Circuit.Netlist.t -> Layout.Chip.t

(** Per-instance effective lengths from a CD annotation: pull-down L is
    the mean of the instance's NMOS [l_on]s, pull-up of the PMOS ones.
    Instances with no annotated device map to [None] (drawn). *)
val lengths_of_annotation :
  Cdex.Annotate.t -> Circuit.Netlist.t -> string -> Circuit.Delay_model.lengths option

val run : config -> Circuit.Netlist.t -> run

(** STA of the run's netlist at classic corners of +-[spread] nm. *)
val corner_views : run -> spread:float -> (Sta.Corners.corner * Sta.Timing.t) list

(** Gate sites belonging to instances on paths with slack within
    [margin] ps of the worst slack, in the given timing view. *)
val critical_gates : run -> view:Sta.Timing.t -> margin:float -> Layout.Chip.gate_ref list

(** Re-run extraction and timing with model OPC applied only to
    [selected] gates and rule OPC elsewhere (the DFM feedback loop).
    Like {!run}, it opens one pool of [config.domains] for its OPC
    and extraction stages. *)
val run_selective : run -> selected:Layout.Chip.gate_ref list -> run

(** Total netlist leakage in uA.  [annotated] uses each device's
    extracted leakage-equivalent length; otherwise drawn. *)
val leakage : run -> annotated:bool -> float

(** {1 Warm re-query API}

    Stage-level entry points over a completed {!run} — the warm state
    a resident service ([Timing_opc_serve]) holds in memory — so
    re-queries compose public signatures instead of reaching through
    flow internals.  Shared contract: every function is a
    deterministic pure function of its arguments and the run's config,
    so results are byte-identical regardless of worker-domain count or
    tile-cache state (the [Exec.Pool] / [Litho.Tile_cache]
    invariants), and a warm re-query equals the same computation
    performed cold.  [extract_at], [reopc_chip] and [ssta] run on
    [pool], by default a ["flow"] pool of [config.domains] opened for
    the call. *)

(** Per-instance effective lengths of the run's own annotation
    (memoised table over [run.annotation], same reduction as
    {!lengths_of_annotation}). *)
val lengths_of : run -> string -> Circuit.Delay_model.lengths option

(** Full STA of the run's netlist under an alternative lengths view,
    with the run's loads and clock period — the cold reference for
    {!retime}. *)
val time_with :
  run ->
  lengths_of:(string -> Circuit.Delay_model.lengths option) ->
  Sta.Timing.t

(** Incremental re-timing via {!Sta.Incremental}: recompute only the
    fan-out cones of [changed] instances starting from [previous]
    (default the run's post-OPC view), under the new lengths view.
    Returns the timing plus the number of gates re-evaluated. *)
val retime :
  run ->
  ?previous:Sta.Timing.t ->
  changed:string list ->
  lengths_of:(string -> Circuit.Delay_model.lengths option) ->
  unit ->
  Sta.Timing.t * int

(** Back-annotate a CD record list with the config's device models
    (the flow's annotate stage as a standalone step). *)
val annotate : config -> Cdex.Gate_cd.t list -> Cdex.Annotate.t

(** Re-run CD extraction against warm state: by default the run's own
    chip, mask, full gate set and silicon condition, each overridable
    for what-if and corner queries ([gates] for region- or
    dirty-scoped re-extraction, [condition] for a process-window
    re-measure, [chip]/[mask] for a perturbed layout).  Applies the
    same per-gate silicon noise as {!run} (seeded per gate key, so a
    re-extraction of a subset splices bit-identically into the run's
    records).  No checkpointing — ad-hoc queries are not stages. *)
val extract_at :
  ?pool:Exec.Pool.t ->
  ?gates:Layout.Chip.gate_ref list ->
  ?condition:Litho.Condition.t ->
  ?chip:Layout.Chip.t ->
  ?mask:Opc.Mask.t ->
  run ->
  Cdex.Gate_cd.t list

(** OPC of a replacement chip under the run's config (style and OPC
    config as in {!run}) — the mask side of a geometric what-if.
    Under model OPC, a correction tile whose inputs (targets and
    frozen context, see {!Opc.Chip_opc.tile_result}) equal a tile of
    the run's own [opc_tiles] takes that tile's result; only the
    tiles the replacement changed are corrected again.  The mask and
    stats are byte-identical to correcting every tile.  The [flow.reopc_chip]
    span carries [tiles_reused] and [tiles_corrected]; each reuse
    counts one [opc.reused_tiles].  No checkpointing. *)
val reopc_chip :
  ?pool:Exec.Pool.t -> run -> Layout.Chip.t -> Opc.Mask.t * Opc.Model_opc.stats

(** {1 Statistical timing (SSTA)} *)

(** Process-window sampling grid around the run's silicon condition:
    [window_steps] x [window_steps] conditions spanning
    +-[dose_spread] (relative dose) and +-[defocus_spread] nm around
    the silicon condition's |defocus| (the optics depend on defocus
    squared), the defocus clamped to [0, {!Litho.Condition.max_defocus}]. *)
type window = {
  dose_spread : float;
  defocus_spread : float;
  window_steps : int;
}

type ssta_view = {
  window : window;
  fit : Sta.Ssta.fit;  (** per-gate CD distribution decomposition *)
  variation : Sta.Ssta.config;
      (** the effective variation model: the fit's components with the
          config's frozen silicon-noise floor folded into the
          independent sigma *)
  ssta : Sta.Ssta.t;  (** canonical-form timing over the base annotation *)
}

(** [ssta r] re-measures the chip's CDs over the process [window]
    (default: a 3x3 grid over +-0.02 dose and +-50 nm defocus), fits
    the per-gate channel-length distribution (global + independent
    components, plus the config's frozen silicon-noise floor as an
    extra independent term) and propagates canonical delay forms over
    the run's own annotation — the statistical counterpart of
    {!corner_views}.  Deterministic: byte-identical output for any
    pool/domain or cache state, warm or cold.  Under the
    [flow.ssta] span; counts [flow.ssta.conditions] and
    [flow.ssta.endpoints]. *)
val ssta : ?pool:Exec.Pool.t -> ?window:window -> run -> ssta_view
