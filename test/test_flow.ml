(* End-to-end tests of the paper's flow on a tiny netlist.  The litho
   pipeline makes these the slowest tests in the suite; the circuit is
   kept small (c17: 6 gates) and the flow result is shared. *)

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let cheap_config () =
  let c = Timing_opc.Flow.default_config () in
  {
    c with
    Timing_opc.Flow.opc_config =
      { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 4 };
    slices = 5;
  }

let run = lazy (Timing_opc.Flow.run (cheap_config ()) (Circuit.Generator.c17 ()))

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let test_placement_matches_netlist () =
  let r = Lazy.force run in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      checkb
        ("instance placed: " ^ g.Circuit.Netlist.gname)
        true
        (Layout.Chip.find_instance r.Timing_opc.Flow.chip g.Circuit.Netlist.gname <> None))
    r.Timing_opc.Flow.netlist.Circuit.Netlist.gates

let test_annotation_covers_gates () =
  let r = Lazy.force run in
  let gates = Layout.Chip.gates r.Timing_opc.Flow.chip in
  checki "all gate sites annotated" (List.length gates)
    (Cdex.Annotate.size r.Timing_opc.Flow.annotation);
  checki "one CD record per gate" (List.length gates)
    (List.length r.Timing_opc.Flow.cds)

let test_all_gates_print () =
  let r = Lazy.force run in
  List.iter
    (fun (cd : Cdex.Gate_cd.t) ->
      checkb
        ("printed: " ^ Layout.Chip.gate_key cd.Cdex.Gate_cd.gate)
        true cd.Cdex.Gate_cd.printed)
    r.Timing_opc.Flow.cds

let test_post_opc_cd_near_drawn () =
  let r = Lazy.force run in
  List.iter
    (fun (cd : Cdex.Gate_cd.t) ->
      let d = Cdex.Gate_cd.delta_cd cd in
      checkb "residual CD error < 6nm" true (Float.abs d < 6.0))
    r.Timing_opc.Flow.cds

let test_timing_views_differ () =
  let r = Lazy.force run in
  let a = Sta.Timing.critical_delay r.Timing_opc.Flow.drawn_sta in
  let b = Sta.Timing.critical_delay r.Timing_opc.Flow.post_opc_sta in
  checkb "views not identical" true (Float.abs (a -. b) > 0.01);
  checkb "views within 15%" true (Float.abs (a -. b) /. a < 0.15)

let test_clock_period_margin () =
  let r = Lazy.force run in
  let crit = Sta.Timing.critical_delay r.Timing_opc.Flow.drawn_sta in
  checkb "clock above critical" true (r.Timing_opc.Flow.clock_period > crit);
  checkb "drawn wns positive" true (r.Timing_opc.Flow.drawn_sta.Sta.Timing.wns > 0.0)

let test_lengths_of_annotation () =
  let r = Lazy.force run in
  let lookup =
    Timing_opc.Flow.lengths_of_annotation r.Timing_opc.Flow.annotation
      r.Timing_opc.Flow.netlist
  in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      match lookup g.Circuit.Netlist.gname with
      | Some l ->
          checkb "l_n plausible" true
            (l.Circuit.Delay_model.l_n > 70.0 && l.Circuit.Delay_model.l_n < 110.0)
      | None -> Alcotest.fail ("no lengths for " ^ g.Circuit.Netlist.gname))
    r.Timing_opc.Flow.netlist.Circuit.Netlist.gates

let test_leakage_views () =
  let r = Lazy.force run in
  let drawn = Timing_opc.Flow.leakage r ~annotated:false in
  let annotated = Timing_opc.Flow.leakage r ~annotated:true in
  checkb "leakage positive" true (drawn > 0.0);
  checkb "annotated differs" true (Float.abs (annotated -. drawn) /. drawn > 0.001)

let test_corner_views () =
  let r = Lazy.force run in
  let corners = Timing_opc.Flow.corner_views r ~spread:8.0 in
  checki "three corners" 3 (List.length corners);
  let delay name =
    let _, t = List.find (fun ((c : Sta.Corners.corner), _) -> c.Sta.Corners.name = name) corners in
    Sta.Timing.critical_delay t
  in
  checkb "slow > fast" true (delay "slow" > delay "fast")

let test_critical_gates_subset () =
  let r = Lazy.force run in
  let critical =
    Timing_opc.Flow.critical_gates r ~view:r.Timing_opc.Flow.drawn_sta ~margin:5.0
  in
  let all = Layout.Chip.gates r.Timing_opc.Flow.chip in
  checkb "some critical gates" true (critical <> []);
  checkb "subset of all" true (List.length critical <= List.length all)

let test_compare_functions () =
  let r = Lazy.force run in
  let d =
    Timing_opc.Compare.slack_delta r.Timing_opc.Flow.drawn_sta
      r.Timing_opc.Flow.post_opc_sta
  in
  checkb "wns_a recorded" true
    (Float.abs (d.Timing_opc.Compare.wns_a -. r.Timing_opc.Flow.drawn_sta.Sta.Timing.wns)
    < 1e-9);
  let ro =
    Timing_opc.Compare.path_reorder r.Timing_opc.Flow.drawn_sta
      r.Timing_opc.Flow.post_opc_sta
  in
  checkb "spearman bounded" true
    (ro.Timing_opc.Compare.spearman >= -1.0 && ro.Timing_opc.Compare.spearman <= 1.0);
  let rt =
    Timing_opc.Compare.rank_table r.Timing_opc.Flow.drawn_sta
      r.Timing_opc.Flow.post_opc_sta
  in
  checki "rank rows = endpoints" (List.length r.Timing_opc.Flow.drawn_sta.Sta.Timing.paths)
    (List.length rt)

let test_selective_run () =
  let r = Lazy.force run in
  let selected =
    Timing_opc.Flow.critical_gates r ~view:r.Timing_opc.Flow.drawn_sta ~margin:5.0
  in
  let r2 = Timing_opc.Flow.run_selective r ~selected in
  checki "same CD record count" (List.length r.Timing_opc.Flow.cds)
    (List.length r2.Timing_opc.Flow.cds);
  checkb "selective OPC measured fewer sites" true
    (r2.Timing_opc.Flow.opc_stats.Opc.Model_opc.sites
    <= r.Timing_opc.Flow.opc_stats.Opc.Model_opc.sites);
  checkb "timing computed" true
    (Sta.Timing.critical_delay r2.Timing_opc.Flow.post_opc_sta > 0.0);
  (* At 2 domains the selective OPC corrects its tiles on the flow pool
     and renders as the sequential run does. *)
  let tasks () = counter "exec.pool.flow.opc.correct_tiles.tasks" in
  let before = tasks () in
  let r2_d2 =
    Timing_opc.Flow.run_selective
      { r with
        Timing_opc.Flow.config = { r.Timing_opc.Flow.config with domains = 2 } }
      ~selected
  in
  checkb "selective OPC tiles ran on the flow pool" true (tasks () > before);
  checkb "selective run at 2 domains = 1 domain" true
    (Identity_helpers.render_run r2_d2 = Identity_helpers.render_run r2
    && Opc.Mask.polygons r2_d2.Timing_opc.Flow.mask
       = Opc.Mask.polygons r2.Timing_opc.Flow.mask)

let test_csv_roundtrip_through_flow () =
  let r = Lazy.force run in
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Cdex.Csv.write ppf r.Timing_opc.Flow.cds;
  Format.pp_print_flush ppf ();
  let back = Cdex.Csv.read (Buffer.contents buf) in
  checki "all records survive" (List.length r.Timing_opc.Flow.cds) (List.length back);
  (* Rebuilt annotation gives identical timing. *)
  let config = r.Timing_opc.Flow.config in
  let ann =
    Cdex.Annotate.build ~nmos:config.Timing_opc.Flow.env.Circuit.Delay_model.nmos
      ~pmos:config.Timing_opc.Flow.env.Circuit.Delay_model.pmos back
  in
  let delay =
    Sta.Timing.model_delay config.Timing_opc.Flow.env
      ~lengths_of:
        (Timing_opc.Flow.lengths_of_annotation ann r.Timing_opc.Flow.netlist)
  in
  let sta =
    Sta.Timing.analyze r.Timing_opc.Flow.netlist ~loads:r.Timing_opc.Flow.loads ~delay
      ~clock_period:r.Timing_opc.Flow.clock_period ()
  in
  Alcotest.(check (float 0.01)) "same WNS after reload"
    r.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns sta.Sta.Timing.wns

let test_rule_explore_smoke () =
  let config = cheap_config () in
  let samples =
    Timing_opc.Rule_explore.sweep config Timing_opc.Rule_explore.Poly_pitch
      ~values:[ 350; 420 ] ~block:4
  in
  checki "two samples" 2 (List.length samples);
  (match samples with
  | [ tight; loose ] ->
      checkb "tighter pitch denser" true
        (tight.Timing_opc.Rule_explore.cell_area_um2
        < loose.Timing_opc.Rule_explore.cell_area_um2);
      List.iter
        (fun (s : Timing_opc.Rule_explore.sample) ->
          checkb "printed fraction sane" true
            (s.Timing_opc.Rule_explore.printed_fraction > 0.9);
          checkb "cd mean sane" true
            (s.Timing_opc.Rule_explore.cd_mean > 80.0
            && s.Timing_opc.Rule_explore.cd_mean < 100.0))
        samples
  | _ -> Alcotest.fail "expected two samples")

let test_report_table_renders () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Timing_opc.Report.table ppf ~title:"t" ~header:[ "a"; "bb" ]
    [ [ "1"; "2" ]; [ "333"; "4" ] ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "title present" true (contains "== t ==");
  checkb "row present" true (contains "333")

(* ---- re-OPC reuse: a move's re-OPC equals a full correction ---- *)

module F = Timing_opc.Flow
module H = Identity_helpers
module R = Geometry.Rect

let reused_tiles () = Obs.Metrics.counter_value (Obs.Metrics.counter "opc.reused_tiles")

(* The base runs of a netlist that a move is re-OPC'd from: domains 1,
   2 and 4, then a run whose OPC stage was loaded from a checkpoint (it
   carries no per-tile results, so its re-OPC corrects every tile). *)
let reopc_bases =
  let memo = Hashtbl.create 2 in
  fun nl ->
    match Hashtbl.find_opt memo nl with
    | Some runs -> runs
    | None ->
        let netlist = H.netlist_of nl in
        let plain =
          List.map (fun domains -> F.run (H.base_config ~domains ()) netlist) [ 1; 2; 4 ]
        in
        let dir = Filename.temp_dir "potx_reopc_" "resume" in
        let with_ckpt resume =
          F.run
            { (H.base_config ()) with
              F.checkpoint = Some (Timing_opc.Checkpoint.create ~dir ~resume) }
            netlist
        in
        ignore (with_ckpt false);
        let resumed = with_ckpt true in
        checkb "a resumed OPC stage carries no per-tile results" true
          (resumed.F.opc_tiles = []);
        let runs = plain @ [ resumed ] in
        Hashtbl.add memo nl runs;
        runs

(* Four moves of one instance, one of each kind: a null move, a move
   that keeps every poly centre of the instance in its correction
   tile, a move that carries a poly centre across a tile edge, and a
   move past the die's right edge, which grows the die and so the tile
   grid. *)
let reopc_moves (r : F.run) ~pick ~k =
  let chip = r.F.chip and tile = r.F.config.F.tile in
  let die = Option.get (Layout.Chip.die chip) in
  let polys_of (i : Layout.Chip.instance) =
    let solo = Layout.Chip.create (Layout.Chip.tech chip) in
    Layout.Chip.add solo ~iname:i.Layout.Chip.iname ~cell:i.Layout.Chip.cell
      i.Layout.Chip.placement;
    Layout.Chip.flatten_layer solo Layout.Layer.Poly
  in
  let with_poly =
    List.filter_map
      (fun i -> match polys_of i with [] -> None | ps -> Some (i.Layout.Chip.iname, ps))
      (Layout.Chip.instances chip)
  in
  let inst, polys = List.nth with_poly (pick mod List.length with_poly) in
  let centres = List.map (fun p -> (R.center (Geometry.Polygon.bbox p)).Geometry.Point.x) polys in
  let col_lo cx = die.R.lx + ((cx - die.R.lx) / tile * tile) in
  let room f = List.fold_left (fun acc cx -> min acc (max 0 (f cx))) max_int centres in
  let inside =
    if k mod 2 = 0 then min k (room (fun cx -> col_lo cx + tile - cx - 1))
    else -min k (room (fun cx -> cx - col_lo cx - 1))
  in
  let cx = List.hd centres in
  let across =
    if col_lo cx + tile < die.R.hx then col_lo cx + tile - cx + (k mod 200) + 1
    else col_lo cx - cx - (k mod 200) - 1
  in
  let past_die = die.R.hx - (R.hull_of_list (List.map Geometry.Polygon.bbox polys)).R.lx + k in
  List.map
    (fun (what, dx) ->
      (Printf.sprintf "%s move of %s by %d" what inst dx, Layout.Chip.move chip ~inst ~dx ~dy:0))
    [ ("null", 0); ("in-tile", inside); ("edge-crossing", across); ("die-growing", past_die) ]

let prop_reopc_equals_full =
  QCheck.Test.make ~name:"re-OPC with reuse = full correction" ~count:4
    (QCheck.make
       ~print:(fun (nl, pick, k) -> Printf.sprintf "netlist %d, instance %d, k=%d" nl pick k)
       QCheck.Gen.(triple (oneofl [ 0; 2 ]) (int_bound 1000) (int_range 1 300)))
    (fun (nl, pick, k) ->
      let bases = reopc_bases nl in
      let config = (List.hd bases).F.config in
      List.for_all
        (fun (what, chip) ->
          let mask, stats =
            Opc.Chip_opc.correct (F.litho_model config)
              (Opc.Chip_opc.Model config.F.opc_config) chip ~tile:config.F.tile
          in
          List.for_all
            (fun base ->
              let m, s = F.reopc_chip base chip in
              (Opc.Mask.polygons m = Opc.Mask.polygons mask && s = stats)
              || QCheck.Test.fail_reportf "%s: re-OPC differs from full correction" what)
            bases)
        (reopc_moves (List.hd bases) ~pick ~k))

let test_reopc_reuse () =
  let before = reused_tiles () in
  let _, _, property = QCheck_alcotest.to_alcotest prop_reopc_equals_full in
  property ();
  checkb "some drawn move reused a tile" true (reused_tiles () > before)

(* ---- byte identity across domains and run features ---- *)

(* Random layouts x domains: exact CSV records, OPC stats, both STA
   summaries and the merged mask equal the sequential run's. *)
let prop_domains_identical =
  QCheck.Test.make ~name:"random netlists x domains = sequential" ~count:4
    (QCheck.make ~print:(Printf.sprintf "netlist=%d") (QCheck.Gen.int_range 0 5))
    (fun nl ->
      let base_render, base_mask = H.baseline ~tile:1500 nl in
      List.for_all
        (fun domains ->
          let r = F.run (H.base_config ~domains ()) (H.netlist_of nl) in
          (H.render_run r = base_render && Opc.Mask.polygons r.F.mask = base_mask)
          || QCheck.Test.fail_reportf "domains %d differs from the sequential run"
               domains)
        [ 1; 2; 4 ])

(* [Flow.config.shard] is ignored (only the benchmark's config literal
   still sets it): any value, at any domain count, gives the sequential
   run's bytes.  These two cases go when the field does. *)
let shard_config ~shard ~domains = { (H.base_config ~domains ()) with F.shard }

let test_shard_domains () =
  List.iter
    (fun (shard, domains) ->
      H.check_identical ~tile:1500
        ~what:(Printf.sprintf "shard=%d domains=%d" shard domains)
        0
        (F.run (shard_config ~shard ~domains) (H.netlist_of 0)))
    [ (2, 2); (4, 2); (4, 4); (8, 4) ]

let prop_shard_ignored =
  QCheck.Test.make ~name:"sharded run = monolithic run" ~count:6
    (QCheck.make
       ~print:(fun (nl, shard, domains) ->
         Printf.sprintf "netlist=%d shard=%d domains=%d" nl shard domains)
       QCheck.Gen.(triple (int_range 0 3) (int_range 1 8) (oneofl [ 1; 2; 4 ])))
    (fun (nl, shard, domains) ->
      let r = F.run (shard_config ~shard ~domains) (H.netlist_of nl) in
      let base_render, base_mask = H.baseline ~tile:1500 nl in
      H.render_run r = base_render && Opc.Mask.polygons r.F.mask = base_mask)

(* Cross-feature identity matrix: {cache} x {checkpoint} x {domains
   1/4}, every cell hashing to the one canonical output. *)
let test_feature_matrix () =
  let canonical = Digest.string (fst (H.baseline ~tile:1500 0)) in
  List.iter
    (fun cache ->
      List.iter
        (fun with_ckpt ->
          List.iter
            (fun domains ->
              let what =
                Printf.sprintf "cache=%b ckpt=%b domains=%d" cache with_ckpt domains
              in
              let checkpoint =
                if with_ckpt then
                  Some
                    (Timing_opc.Checkpoint.create
                       ~dir:(Filename.temp_dir "potx_flow_" "matrix")
                       ~resume:false)
                else None
              in
              let config = { (H.base_config ~domains ()) with F.cache; checkpoint } in
              let r = F.run config (H.netlist_of 0) in
              checkb (what ^ ": canonical hash") true
                (Digest.string (H.render_run r) = canonical))
            [ 1; 4 ])
        [ false; true ])
    [ false; true ]

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "placement" `Slow test_placement_matches_netlist;
          Alcotest.test_case "annotation coverage" `Slow test_annotation_covers_gates;
          Alcotest.test_case "all print" `Slow test_all_gates_print;
          Alcotest.test_case "CD residual" `Slow test_post_opc_cd_near_drawn;
          Alcotest.test_case "views differ" `Slow test_timing_views_differ;
          Alcotest.test_case "clock margin" `Slow test_clock_period_margin;
          Alcotest.test_case "lengths lookup" `Slow test_lengths_of_annotation;
          Alcotest.test_case "leakage" `Slow test_leakage_views;
          Alcotest.test_case "corners" `Slow test_corner_views;
          Alcotest.test_case "critical gates" `Slow test_critical_gates_subset;
          Alcotest.test_case "compare" `Slow test_compare_functions;
          Alcotest.test_case "selective" `Slow test_selective_run;
          Alcotest.test_case "csv roundtrip" `Slow test_csv_roundtrip_through_flow;
        ] );
      ( "rule-explore",
        [ Alcotest.test_case "smoke" `Slow test_rule_explore_smoke ] );
      ("report", [ Alcotest.test_case "table" `Quick test_report_table_renders ]);
      ( "reopc",
        [ Alcotest.test_case "reuse = full correction" `Slow test_reopc_reuse ] );
      ( "identity",
        [
          QCheck_alcotest.to_alcotest prop_domains_identical;
          Alcotest.test_case "shard x domains" `Slow test_shard_domains;
          QCheck_alcotest.to_alcotest prop_shard_ignored;
        ] );
      ( "features",
        [
          Alcotest.test_case "cache x checkpoint x domains" `Slow
            test_feature_matrix;
        ] );
    ]
