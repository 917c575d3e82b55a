(* Sharded-flow identity contract: Flow.run with any shard count and
   any domain count is byte-identical to the monolithic run — exact
   CSV records, OPC stats, both STA summaries and the merged mask —
   including degenerate shards smaller than the optical halo, and in
   combination with the cache, checkpoint/resume and absorbed-fault
   features (the cross-feature matrix). *)

module F = Timing_opc.Flow

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* The reduced config, exact renderings and monolithic-baseline
   comparison live in Identity_helpers, shared with test_serve and
   test_ssta. *)
let base_config = Identity_helpers.base_config

let render = Identity_helpers.render_run

let netlist_of = Identity_helpers.netlist_of

let baseline = Identity_helpers.baseline

let check_identical = Identity_helpers.check_identical

let test_shard_counts () =
  (* Sanity: the plan really is a multi-strip partition at this tile. *)
  let config = base_config ~shard:4 () in
  let chip = F.place config (netlist_of 0) in
  let litho = F.litho_model config in
  let shards =
    Timing_opc.Shard.plan ~tile:config.F.tile ~halo:litho.Litho.Model.halo
      ~count:4 chip
  in
  checki "4 strips planned" 4 (List.length shards);
  checkb "several strips own gates" true
    (List.length
       (List.filter (fun s -> s.Timing_opc.Shard.gates <> []) shards)
    >= 2);
  checkb "halo context is visible" true
    (List.exists (fun s -> s.Timing_opc.Shard.halo_gates > 0) shards);
  List.iter
    (fun shard ->
      let r = F.run (base_config ~shard ()) (netlist_of 0) in
      check_identical ~tile:1500 ~what:(Printf.sprintf "shard=%d" shard) 0 r)
    [ 2; 3; 5; 8 ]

let test_shard_domains () =
  List.iter
    (fun (shard, domains) ->
      let r = F.run (base_config ~shard ~domains ()) (netlist_of 0) in
      check_identical ~tile:1500
        ~what:(Printf.sprintf "shard=%d domains=%d" shard domains)
        0 r)
    [ (2, 2); (4, 2); (4, 4); (8, 4) ]

(* Strips far narrower than the optical halo (tile=6000 puts the whole
   inv_chain die in one or two bucket columns; 8 strips leave most
   shards empty) must still merge to the monolithic result. *)
let test_degenerate_shards () =
  List.iter
    (fun nl_idx ->
      List.iter
        (fun shard ->
          let r = F.run (base_config ~tile:6000 ~shard ()) (netlist_of nl_idx) in
          check_identical ~tile:6000
            ~what:(Printf.sprintf "netlist=%d narrow shard=%d" nl_idx shard)
            nl_idx r)
        [ 7; 8 ])
    [ 0; 1 ]

let test_shard_metrics () =
  let shards0 = counter "flow.shards" in
  let halo0 = counter "shard.halo_gates" in
  ignore (F.run (base_config ~shard:4 ()) (netlist_of 0));
  checki "flow.shards counts the partition" 4 (counter "flow.shards" - shards0);
  checkb "shard.halo_gates sees foreign context" true
    (counter "shard.halo_gates" - halo0 > 0)

(* qcheck: identity across random layouts x shard count x domains. *)
let prop_sharded_identical =
  let arb =
    QCheck.make
      ~print:(fun (nl, shard, domains) ->
        Printf.sprintf "netlist=%d shard=%d domains=%d" nl shard domains)
      QCheck.Gen.(
        triple (int_range 0 3) (int_range 1 8) (oneofl [ 1; 2; 4 ]))
  in
  QCheck.Test.make ~name:"sharded run = monolithic run" ~count:6 arb
    (fun (nl_idx, shard, domains) ->
      let r = F.run (base_config ~shard ~domains ()) (netlist_of nl_idx) in
      let base_render, base_mask = baseline ~tile:1500 nl_idx in
      render r = base_render && Opc.Mask.polygons r.F.mask = base_mask)

(* Cross-feature identity matrix: {cache} x {checkpoint} x {absorbed
   faults under retry} x {shard 1/4}, every cell hashing to the one
   canonical output. *)
let test_feature_matrix () =
  let canonical = Digest.string (fst (baseline ~tile:1500 0)) in
  let injected0 = counter "fault.injected" in
  let plan =
    match
      Fault.parse "litho.simulate=fail1;opc.correct=fail1;cdex.measure=fail2;seed=11"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fun.protect ~finally:(fun () -> Fault.set_plan None) @@ fun () ->
  List.iter
    (fun cache ->
      List.iter
        (fun with_ckpt ->
          List.iter
            (fun faulty ->
              List.iter
                (fun shard ->
                  let what =
                    Printf.sprintf "cache=%b ckpt=%b faults=%b shard=%d" cache
                      with_ckpt faulty shard
                  in
                  Fault.set_plan (if faulty then Some plan else None);
                  let checkpoint =
                    if with_ckpt then
                      Some
                        (Timing_opc.Checkpoint.create
                           ~dir:(Filename.temp_dir "potx_shard_" "matrix")
                           ~resume:false)
                    else None
                  in
                  let config =
                    { (base_config ~shard ()) with
                      F.cache;
                      checkpoint;
                      retry = Fault.retrying 3 }
                  in
                  let r = F.run config (netlist_of 0) in
                  checkb (what ^ ": canonical hash") true
                    (Digest.string (render r) = canonical))
                [ 1; 4 ])
            [ false; true ])
        [ false; true ])
    [ false; true ];
  checkb "matrix really injected faults" true (counter "fault.injected" - injected0 > 0)

(* Shard-granular resume: each non-empty shard checkpoints its CD
   records under its own stage; a resume at the same shard count loads
   them all, a resume at a different count recomputes extraction (new
   stage names) while still loading the shard-independent OPC stage —
   and every variant stays byte-identical. *)
let test_shard_resume () =
  let dir = Filename.temp_dir "potx_shard_" "resume" in
  let run_with ~shard ~resume =
    F.run
      { (base_config ~shard ()) with
        F.checkpoint = Some (Timing_opc.Checkpoint.create ~dir ~resume) }
      (netlist_of 0)
  in
  let nonempty =
    let config = base_config ~shard:4 () in
    let chip = F.place config (netlist_of 0) in
    let litho = F.litho_model config in
    Timing_opc.Shard.plan ~tile:config.F.tile ~halo:litho.Litho.Model.halo
      ~count:4 chip
    |> List.filter (fun s -> s.Timing_opc.Shard.gates <> [])
    |> List.length
  in
  let saved0 = counter "flow.checkpoint.saved" in
  let first = run_with ~shard:4 ~resume:false in
  checki "opc + one cds stage per non-empty shard saved" (1 + nonempty)
    (counter "flow.checkpoint.saved" - saved0);
  let loaded0 = counter "flow.checkpoint.loaded" in
  let resumed = run_with ~shard:4 ~resume:true in
  checki "all stages loaded on same-count resume" (1 + nonempty)
    (counter "flow.checkpoint.loaded" - loaded0);
  let loaded1 = counter "flow.checkpoint.loaded" in
  let recut = run_with ~shard:2 ~resume:true in
  checki "different cut only reuses the opc stage" 1
    (counter "flow.checkpoint.loaded" - loaded1);
  check_identical ~tile:1500 ~what:"checkpointing sharded run" 0 first;
  check_identical ~tile:1500 ~what:"same-count resume" 0 resumed;
  check_identical ~tile:1500 ~what:"re-cut resume" 0 recut

let () =
  Alcotest.run "shard"
    [
      ( "identity",
        [
          Alcotest.test_case "shard counts 2..8" `Slow test_shard_counts;
          Alcotest.test_case "shard x domains" `Slow test_shard_domains;
          Alcotest.test_case "degenerate narrow shards" `Slow
            test_degenerate_shards;
          QCheck_alcotest.to_alcotest prop_sharded_identical;
        ] );
      ( "features",
        [
          Alcotest.test_case "observability counters" `Slow test_shard_metrics;
          Alcotest.test_case "cache x checkpoint x faults x shard matrix" `Slow
            test_feature_matrix;
          Alcotest.test_case "shard-granular resume" `Slow test_shard_resume;
        ] );
    ]
