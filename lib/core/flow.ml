type opc_style = No_opc | Rule_opc | Model_opc

type no_dist = |

type config = {
  tech : Layout.Tech.t;
  env : Circuit.Delay_model.env;
  opc_style : opc_style;
  opc_config : Opc.Model_opc.config;
  condition : Litho.Condition.t;
  cd_noise_gate : float;
  cd_noise_slice : float;
  clock_margin : float;
  tile : int;
  seed : int;
  slices : int;
  domains : int;
  shard : int;
  cache : bool;
  engine : Litho.Aerial.engine;
  retry : Fault.retry;
  checkpoint : Checkpoint.t option;
  dist : no_dist option;
}

let default_config () =
  let tech = Layout.Tech.node90 in
  {
    tech;
    env = Circuit.Delay_model.default_env tech;
    opc_style = Model_opc;
    opc_config = Opc.Model_opc.default_config tech;
    (* The "silicon" condition: real exposure sits slightly off the OPC
       model's nominal (process centring error), which is precisely why
       post-OPC extraction sees CDs the library view does not. *)
    condition = Litho.Condition.make ~dose:1.015 ~defocus:70.0;
    cd_noise_gate = 1.5;
    cd_noise_slice = 1.0;
    clock_margin = 0.05;
    tile = 6000;
    seed = 42;
    slices = 7;
    domains = 1;
    shard = 1;
    cache = true;
    engine = Litho.Aerial.Direct;
    retry = Fault.no_retry;
    checkpoint = None;
    dist = None;
  }

(* One flow stage: its span, and an optional [checkpoint] (stage
   name, input key, codec) that loads the stage instead of computing
   it, or saves what it computed. *)
let stage ~name config ?checkpoint f =
  Obs.Span.with_ ~name (fun () ->
      match (checkpoint, config.checkpoint) with
      | None, _ | _, None -> f ()
      | Some (cname, key, encode, decode), Some _ ->
          (* [key] is a thunk: content-hashing the stage inputs means
             serialising the chip and mask, which plain runs must not
             pay for. *)
          Checkpoint.stage config.checkpoint ~name:cname ~key:(key ())
            ~encode ~decode f)

(* The pool for the OPC and extraction hot paths: the caller's (one
   pool shared across service requests), or else a "flow" pool of
   [config.domains], one domain included, shut down when [f] returns.
   Results are bit-identical either way (see Exec.Pool). *)
let with_pool ?pool config f =
  match pool with
  | Some p -> f p
  | None -> Exec.Pool.with_pool ~name:"flow" ~domains:config.domains f

let model_cache : (string, Litho.Model.t) Hashtbl.t = Hashtbl.create 4

(* Memoised per technology.  The cache setting only changes wall time,
   so it is applied to the memoised model on the way out. *)
let litho_model config =
  let key = config.tech.Layout.Tech.name in
  let m =
    match Hashtbl.find_opt model_cache key with
    | Some m -> m
    | None ->
        let m =
          Litho.Aerial.calibrate
            (Litho.Model.create ~cache:config.cache ())
            config.tech
        in
        Hashtbl.add model_cache key m;
        m
  in
  { m with Litho.Model.cache = config.cache }

type run = {
  config : config;
  netlist : Circuit.Netlist.t;
  chip : Layout.Chip.t;
  mask : Opc.Mask.t;
  opc_stats : Opc.Model_opc.stats;
  opc_tiles : Opc.Chip_opc.tile_result list;
  cds : Cdex.Gate_cd.t list;
  annotation : Cdex.Annotate.t;
  loads : Circuit.Netlist.net -> float;
  clock_period : float;
  drawn_sta : Sta.Timing.t;
  post_opc_sta : Sta.Timing.t;
}

let m_runs = Obs.Metrics.counter "flow.runs"

let m_place_cells = Obs.Metrics.counter "place.cells"

let m_corners = Obs.Metrics.counter "sta.corners"

let place config netlist =
  Obs.Span.with_ ~name:"flow.place"
    ~attrs:(fun () ->
      [ ("cells", string_of_int (Circuit.Netlist.num_gates netlist)) ])
  @@ fun () ->
  Obs.Metrics.add m_place_cells (Circuit.Netlist.num_gates netlist);
  let rng = Stats.Rng.create config.seed in
  let cells =
    Array.to_list netlist.Circuit.Netlist.gates
    |> List.map (fun (g : Circuit.Netlist.gate) ->
           let cell = Circuit.Cell_lib.find g.Circuit.Netlist.cell in
           (g.Circuit.Netlist.gname, cell.Circuit.Cell_lib.layout_cell))
  in
  Layout.Placer.place config.tech Layout.Placer.default_config rng cells

let mean = function
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))

let lengths_of_annotation annotation netlist =
  (* Precompute per-instance lengths once; STA calls this per arc. *)
  let table = Hashtbl.create (Circuit.Netlist.num_gates netlist) in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let cell = Circuit.Cell_lib.find g.Circuit.Netlist.cell in
      let collect names =
        List.filter_map
          (fun tname ->
            Option.map
              (fun (e : Cdex.Annotate.entry) -> e.Cdex.Annotate.l_on)
              (Cdex.Annotate.find annotation (g.Circuit.Netlist.gname ^ "/" ^ tname)))
          names
      in
      match
        (mean (collect cell.Circuit.Cell_lib.nmos_names),
         mean (collect cell.Circuit.Cell_lib.pmos_names))
      with
      | Some l_n, Some l_p ->
          Hashtbl.replace table g.Circuit.Netlist.gname
            { Circuit.Delay_model.l_n; l_p }
      | None, _ | _, None -> ())
    netlist.Circuit.Netlist.gates;
  fun name -> Hashtbl.find_opt table name

(* Model-based OPC corrects the plan's tiles as pool tasks and
   assembles the mask in canonical tile order.
   The per-tile results come back with the mask ([] for rule and no
   OPC); a tile whose content key [reuse] holds is not corrected
   again. *)
let opc_of_config ~pool ?reuse config litho chip =
  let whole style =
    let mask, stats = Opc.Chip_opc.correct litho style chip ~tile:config.tile in
    (mask, stats, [])
  in
  match config.opc_style with
  | No_opc -> whole Opc.Chip_opc.None_
  | Rule_opc -> whole (Opc.Chip_opc.Rule (Opc.Rule_opc.default_recipe config.tech))
  | Model_opc ->
      let plan = Opc.Chip_opc.plan litho chip ~tile:config.tile in
      let results =
        Opc.Chip_opc.correct_tiles ~pool ?reuse litho config.opc_config plan
      in
      let mask, stats = Opc.Chip_opc.assemble plan results in
      (mask, stats, results)

(* --- checkpoint keys and codecs ---------------------------------- *)

(* [%h] hex floats round-trip bit-for-bit through [float_of_string];
   they appear both in content-hash keys and in meta fields. *)
let hex = Printf.sprintf "%h"

let with_buffer f =
  let b = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer b in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let chip_digest chip =
  Digest.to_hex (Digest.string (with_buffer (fun ppf -> Layout.Io.write_chip ppf chip)))

(* The mask as Io shape lines.  write_shapes preserves polygon order
   and Mask.of_polygons preserves list order, so a reloaded mask
   answers window queries identically to the checkpointed one. *)
let mask_text mask =
  with_buffer (fun ppf ->
      Layout.Io.write_shapes ppf
        (List.map (fun p -> (Layout.Layer.Poly, p)) (Opc.Mask.polygons mask)))

let opc_style_tag = function
  | No_opc -> "none"
  | Rule_opc -> "rule"
  | Model_opc -> "model"

(* Content hash of everything the OPC stage's output depends on.
   Domain count and the litho tile cache are deliberately excluded:
   results are bit-identical across both (see Exec.Pool and
   Litho.Tile_cache), so a checkpoint written at one domain count
   resumes cleanly at another. *)
let opc_key config ~extra chip =
  let oc = config.opc_config in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            config.tech.Layout.Tech.name;
            opc_style_tag config.opc_style;
            string_of_int oc.Opc.Model_opc.iterations;
            hex oc.Opc.Model_opc.damping;
            string_of_int oc.Opc.Model_opc.max_len;
            string_of_int oc.Opc.Model_opc.line_end_max;
            string_of_int oc.Opc.Model_opc.max_displacement;
            hex oc.Opc.Model_opc.tolerance;
            hex oc.Opc.Model_opc.search;
            string_of_int oc.Opc.Model_opc.mask_grid;
            string_of_int oc.Opc.Model_opc.min_mask_space;
            string_of_int oc.Opc.Model_opc.sim_tile;
            string_of_int config.tile;
            extra;
            chip_digest chip;
          ]))

(* OPC convergence stats ride in the meta as %h strings: Json numbers
   print %.6g-lossy, strings round-trip exactly. *)
let encode_mask (mask, (stats : Opc.Model_opc.stats)) =
  ( mask_text mask,
    [
      ( "iterations_run",
        Obs.Json.Str (string_of_int stats.Opc.Model_opc.iterations_run) );
      ("max_epe", Obs.Json.Str (hex stats.Opc.Model_opc.max_epe));
      ("rms_epe", Obs.Json.Str (hex stats.Opc.Model_opc.rms_epe));
      ("sites", Obs.Json.Str (string_of_int stats.Opc.Model_opc.sites));
      ("unresolved", Obs.Json.Str (string_of_int stats.Opc.Model_opc.unresolved));
    ] )

let decode_mask ~payload ~meta =
  let str k = Option.bind (Obs.Json.member k meta) Obs.Json.to_str in
  match
    (str "iterations_run", str "max_epe", str "rms_epe", str "sites",
     str "unresolved")
  with
  | Some it, Some mx, Some rms, Some s, Some u ->
      let mask =
        Opc.Mask.of_polygons (List.map snd (Layout.Io.read_shapes payload))
      in
      Some
        ( mask,
          {
            Opc.Model_opc.iterations_run = int_of_string it;
            max_epe = float_of_string mx;
            rms_epe = float_of_string rms;
            sites = int_of_string s;
            unresolved = int_of_string u;
          } )
  | _ -> None

(* The run's OPC stage also yields its per-tile results; they are not
   checkpointed, so a stage loaded from a checkpoint carries none. *)
let encode_opc (mask, stats, _tiles) = encode_mask (mask, stats)

let decode_opc ~payload ~meta =
  Option.map (fun (mask, stats) -> (mask, stats, [])) (decode_mask ~payload ~meta)

(* The CD checkpoint stores post-noise records, so a resumed run skips
   both the extraction and the noise pass. *)
let cds_key config ~extra ~mask ~chip =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Digest.to_hex (Digest.string (mask_text mask));
            chip_digest chip;
            hex config.condition.Litho.Condition.dose;
            hex config.condition.Litho.Condition.defocus;
            string_of_int config.slices;
            string_of_int config.tile;
            hex config.cd_noise_gate;
            hex config.cd_noise_slice;
            string_of_int config.seed;
            extra;
          ]))

let encode_cds cds =
  (with_buffer (fun ppf -> Cdex.Csv.write ppf cds), [])

let decode_cds ~payload ~meta:_ = Some (Cdex.Csv.read ~src:"checkpoint" payload)

(* Local silicon CD variation: the litho simulator is deterministic,
   but the CD-SEM data the paper calibrates against carries line-edge
   roughness and local dose/focus noise.  A per-gate component (does
   not average out over the device width) plus a per-slice component
   (partially averages in the L_eff reduction) is added, seeded from
   the gate key so runs are reproducible. *)
let add_silicon_noise config cds =
  if config.cd_noise_gate <= 0.0 && config.cd_noise_slice <= 0.0 then cds
  else
    List.map
      (fun (cd : Cdex.Gate_cd.t) ->
        let key = Layout.Chip.gate_key cd.Cdex.Gate_cd.gate in
        let rng = Stats.Rng.create (Hashtbl.hash (config.seed, key)) in
        let gate_shift = Stats.Rng.normal rng ~mean:0.0 ~std:config.cd_noise_gate in
        let bump v =
          let s = Stats.Rng.normal rng ~mean:0.0 ~std:config.cd_noise_slice in
          Float.max 10.0 (v +. gate_shift +. s)
        in
        { cd with Cdex.Gate_cd.cds = List.map bump cd.Cdex.Gate_cd.cds })
      cds

(* Extraction measures every gate site against the merged mask and
   adds silicon noise.  With checkpointing on, the post-noise records
   are saved under [ckpt_stage] and a content-hash key; a chip without
   gate sites has nothing to resume and writes no file. *)
let extract_cds ~pool config ~litho ~chip ~mask ~ckpt_stage ~ckpt_extra =
  let gates = Layout.Chip.gates chip in
  let compute () =
    Cdex.Extract.extract ~pool litho config.condition
      ~mask:(Opc.Mask.source mask) ~gates ~slices:config.slices ~tile:config.tile ()
    |> add_silicon_noise config
  in
  match config.checkpoint with
  | Some _ when gates <> [] ->
      Checkpoint.stage config.checkpoint ~name:ckpt_stage
        ~key:(cds_key config ~extra:ckpt_extra ~mask ~chip)
        ~encode:encode_cds ~decode:decode_cds compute
  | _ -> compute ()

let extract_and_time ~pool ?(ckpt_stage = "cds") ?(ckpt_extra = "") config
    ~litho ~netlist ~chip ~mask ~loads ~clock_period =
  let cds =
    stage ~name:"flow.cdex" config (fun () ->
        extract_cds ~pool config ~litho ~chip ~mask ~ckpt_stage ~ckpt_extra)
  in
  let annotation =
    stage ~name:"flow.annotate" config (fun () ->
        Cdex.Annotate.build ~nmos:config.env.Circuit.Delay_model.nmos
          ~pmos:config.env.Circuit.Delay_model.pmos cds)
  in
  let delay =
    Sta.Timing.model_delay config.env
      ~lengths_of:(lengths_of_annotation annotation netlist)
  in
  let sta =
    stage ~name:"flow.sta.post_opc" config (fun () ->
        Sta.Timing.analyze netlist ~loads ~delay ~clock_period ())
  in
  (cds, annotation, sta)

let run config netlist =
  Obs.Span.with_ ~name:"flow.run"
    ~attrs:(fun () ->
      [ ("gates", string_of_int (Circuit.Netlist.num_gates netlist));
        ("domains", string_of_int config.domains) ])
  @@ fun () ->
  Obs.Metrics.incr m_runs;
  let litho =
    stage ~name:"flow.litho_model" config (fun () -> litho_model config)
  in
  let chip = place config netlist in
  let loads = Circuit.Loads.of_netlist config.env netlist in
  (* Sign-off view: characterised NLDM library at drawn CDs. *)
  let nldm =
    Obs.Span.with_ ~name:"flow.library" (fun () -> Circuit.Nldm.build_library config.env)
  in
  let drawn_delay = Sta.Timing.nldm_delay nldm in
  let drawn_sta, clock_period =
    stage ~name:"flow.sta.drawn" config (fun () ->
        let pre =
          Sta.Timing.analyze netlist ~loads ~delay:drawn_delay ~clock_period:1.0 ()
        in
        let clock_period =
          Sta.Timing.critical_delay pre *. (1.0 +. config.clock_margin)
        in
        ( Sta.Timing.analyze netlist ~loads ~delay:drawn_delay ~clock_period (),
          clock_period ))
  in
  (* One pool spans OPC and extraction; the merged mask is the barrier
     between them. *)
  let mask, opc_stats, opc_tiles, cds, annotation, post_opc_sta =
    with_pool config (fun pool ->
        let mask, opc_stats, opc_tiles =
          stage ~name:"flow.opc" config
            ~checkpoint:
              ( "opc",
                (fun () -> opc_key config ~extra:"" chip),
                encode_opc,
                decode_opc )
            (fun () -> opc_of_config ~pool config litho chip)
        in
        let cds, annotation, post_opc_sta =
          extract_and_time ~pool config ~litho ~netlist ~chip ~mask ~loads
            ~clock_period
        in
        (mask, opc_stats, opc_tiles, cds, annotation, post_opc_sta))
  in
  {
    config;
    netlist;
    chip;
    mask;
    opc_stats;
    opc_tiles;
    cds;
    annotation;
    loads;
    clock_period;
    drawn_sta;
    post_opc_sta;
  }

let corner_views r ~spread =
  Obs.Span.with_ ~name:"flow.sta.corners" @@ fun () ->
  let corners = Sta.Corners.classic ~spread in
  Obs.Metrics.add m_corners (List.length corners);
  List.map
    (fun corner ->
      ( corner,
        Sta.Corners.analyze r.config.env r.netlist ~loads:r.loads corner
          ~clock_period:r.clock_period ))
    corners

let critical_gates r ~view ~margin =
  let worst = view.Sta.Timing.wns in
  let names =
    List.concat_map
      (fun (p : Sta.Timing.path) ->
        if p.Sta.Timing.slack <= worst +. margin then p.Sta.Timing.gates else [])
      view.Sta.Timing.paths
    |> List.sort_uniq String.compare
  in
  let set = Hashtbl.create (List.length names) in
  List.iter (fun n -> Hashtbl.replace set n ()) names;
  List.filter
    (fun (g : Layout.Chip.gate_ref) -> Hashtbl.mem set g.Layout.Chip.inst)
    (Layout.Chip.gates r.chip)

let run_selective r ~selected =
  Obs.Span.with_ ~name:"flow.run_selective"
    ~attrs:(fun () -> [ ("selected", string_of_int (List.length selected)) ])
  @@ fun () ->
  let config = r.config in
  let litho = litho_model config in
  (* Selective runs checkpoint under their own stage names with the
     selected-gate set folded into the key, so a full-run checkpoint in
     the same directory is never mistaken for a selective one. *)
  let sel_extra =
    List.map Layout.Chip.gate_key selected
    |> List.sort_uniq String.compare
    |> String.concat ","
  in
  (* One pool spans OPC and extraction, as in [run]. *)
  let mask, opc_stats, cds, annotation, post_opc_sta =
    with_pool config (fun pool ->
        let mask, opc_stats =
          stage ~name:"flow.opc" config
            ~checkpoint:
              ( "opc_sel",
                (fun () -> opc_key config ~extra:sel_extra r.chip),
                encode_mask,
                decode_mask )
            (fun () ->
              Opc.Chip_opc.correct_selective ~pool litho config.opc_config
                (Opc.Rule_opc.default_recipe config.tech)
                r.chip ~tile:config.tile ~selected)
        in
        let cds, annotation, post_opc_sta =
          extract_and_time ~pool ~ckpt_stage:"cds_sel" ~ckpt_extra:sel_extra
            config ~litho ~netlist:r.netlist ~chip:r.chip ~mask ~loads:r.loads
            ~clock_period:r.clock_period
        in
        (mask, opc_stats, cds, annotation, post_opc_sta))
  in
  { r with mask; opc_stats; cds; annotation; post_opc_sta }

(* --- warm re-query API (used by Timing_opc_serve) ----------------- *)

let lengths_of r = lengths_of_annotation r.annotation r.netlist

let time_with r ~lengths_of =
  let delay = Sta.Timing.model_delay r.config.env ~lengths_of in
  Sta.Timing.analyze r.netlist ~loads:r.loads ~delay
    ~clock_period:r.clock_period ()

let retime r ?previous ~changed ~lengths_of () =
  let previous = Option.value previous ~default:r.post_opc_sta in
  let delay = Sta.Timing.model_delay r.config.env ~lengths_of in
  Sta.Incremental.update r.netlist ~previous ~changed ~loads:r.loads ~delay ()

let annotate config cds =
  Cdex.Annotate.build ~nmos:config.env.Circuit.Delay_model.nmos
    ~pmos:config.env.Circuit.Delay_model.pmos cds

let extract_at ?pool ?gates ?condition ?chip ?mask r =
  let config = r.config in
  let condition = Option.value condition ~default:config.condition in
  let chip = Option.value chip ~default:r.chip in
  let mask = Option.value mask ~default:r.mask in
  let gates =
    match gates with Some g -> g | None -> Layout.Chip.gates chip
  in
  Obs.Span.with_ ~name:"flow.extract_at"
    ~attrs:(fun () -> [ ("gates", string_of_int (List.length gates)) ])
  @@ fun () ->
  let litho = litho_model config in
  with_pool ?pool config (fun pool ->
      Cdex.Extract.extract ~pool litho condition
        ~mask:(Opc.Mask.source mask) ~gates ~slices:config.slices
        ~tile:config.tile ()
      |> add_silicon_noise config)

(* Only the run's own per-tile results are offered for reuse: a query
   adds nothing to them, so a session's memory does not grow with its
   what-ifs and a reply does not depend on the queries before it. *)
let reopc_chip ?pool r chip =
  let config = r.config in
  let results = ref [] in
  let count p = string_of_int (List.length (List.filter p !results)) in
  Obs.Span.with_ ~name:"flow.reopc_chip"
    ~attrs:(fun () ->
      [
        ("tiles_reused", count Opc.Chip_opc.reused);
        ("tiles_corrected", count (fun t -> not (Opc.Chip_opc.reused t)));
      ])
  @@ fun () ->
  let litho = litho_model config in
  with_pool ?pool config (fun pool ->
      let mask, stats, tiles =
        opc_of_config ~pool ~reuse:r.opc_tiles config litho chip
      in
      results := tiles;
      (mask, stats))

(* --- statistical timing (SSTA) ------------------------------------ *)

type window = { dose_spread : float; defocus_spread : float; window_steps : int }

let default_window = { dose_spread = 0.02; defocus_spread = 50.0; window_steps = 3 }

type ssta_view = {
  window : window;
  fit : Sta.Ssta.fit;
  variation : Sta.Ssta.config;
  ssta : Sta.Ssta.t;
}

let m_ssta_conditions = Obs.Metrics.counter "flow.ssta.conditions"

let m_ssta_endpoints = Obs.Metrics.counter "flow.ssta.endpoints"

(* The optics depend on defocus squared, so the window is centred on
   |defocus|: a negative silicon defocus gets the mirror of its
   positive twin's window. *)
let window_conditions config w =
  let c = config.condition in
  let defocus = Float.abs c.Litho.Condition.defocus in
  Litho.Condition.grid
    ~dose_range:
      ( c.Litho.Condition.dose -. w.dose_spread,
        c.Litho.Condition.dose +. w.dose_spread )
    ~dose_steps:w.window_steps
    ~defocus_range:
      ( Float.max 0.0 (defocus -. w.defocus_spread),
        Float.min Litho.Condition.max_defocus (defocus +. w.defocus_spread) )
    ~defocus_steps:w.window_steps

let mean_length (l : Circuit.Delay_model.lengths) =
  0.5 *. (l.Circuit.Delay_model.l_n +. l.Circuit.Delay_model.l_p)

(* Fit per-gate CD distributions from process-window extraction and
   propagate them as canonical delay forms.  Per window condition the
   chip is re-measured against the warm mask (the tile cache absorbs
   dose-only repeats) and each annotated instance contributes its mean
   channel-length delta versus the base annotation; Ssta.fit splits
   the matrix into the across-chip (global) and per-gate residual
   (independent) components.  The silicon LER/local-dose noise
   (config.cd_noise_gate) is frozen into the base annotation — it is
   identical at every window condition, so it cancels in the deltas —
   and re-enters as an extra independent term for fresh silicon. *)
let ssta ?pool ?(window = default_window) r =
  Obs.Span.with_ ~name:"flow.ssta"
    ~attrs:(fun () ->
      [
        ("steps", string_of_int window.window_steps);
        ("gates", string_of_int (Circuit.Netlist.num_gates r.netlist));
      ])
  @@ fun () ->
  let config = r.config in
  let base = lengths_of r in
  let gates =
    Array.to_list r.netlist.Circuit.Netlist.gates
    |> List.filter_map (fun (g : Circuit.Netlist.gate) ->
           Option.map
             (fun l -> (g.Circuit.Netlist.gname, mean_length l))
             (base g.Circuit.Netlist.gname))
  in
  let conditions = window_conditions config window in
  Obs.Metrics.add m_ssta_conditions (List.length conditions);
  let dl =
    with_pool ?pool config (fun pool ->
        List.map
          (fun condition ->
            let cds = extract_at ~pool ~condition r in
            let lengths =
              lengths_of_annotation (annotate config cds) r.netlist
            in
            Array.of_list
              (List.map
                 (fun (name, b) ->
                   match lengths name with
                   | Some l -> mean_length l -. b
                   | None -> 0.0)
                 gates))
          conditions)
    |> Array.of_list
  in
  let fit = Sta.Ssta.fit dl in
  let sconfig =
    {
      Sta.Ssta.sigma_global = fit.Sta.Ssta.global_sigma;
      sigma_local = Float.hypot fit.Sta.Ssta.local_sigma config.cd_noise_gate;
      mean_shift = fit.Sta.Ssta.shift;
      clock_period = r.clock_period;
    }
  in
  let ssta =
    Sta.Ssta.analyze config.env r.netlist ~loads:r.loads ~lengths_of:base
      sconfig
  in
  Obs.Metrics.add m_ssta_endpoints (List.length ssta.Sta.Ssta.endpoints);
  { window; fit; variation = sconfig; ssta }

let leakage r ~annotated =
  Array.fold_left
    (fun acc (g : Circuit.Netlist.gate) ->
      let cell = Circuit.Cell_lib.find g.Circuit.Netlist.cell in
      let l_off_of tname =
        if not annotated then None
        else
          Option.map
            (fun (e : Cdex.Annotate.entry) -> e.Cdex.Annotate.l_off)
            (Cdex.Annotate.find r.annotation (g.Circuit.Netlist.gname ^ "/" ^ tname))
      in
      acc +. Circuit.Delay_model.cell_leakage r.config.env cell ~l_off_of)
    0.0 r.netlist.Circuit.Netlist.gates
