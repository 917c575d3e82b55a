(* Checkpoint/resume contract: a resumed run is byte-identical to a
   clean one (for both the full flow and the selective-OPC loop), and
   a checkpoint is a cache, never a source of truth — tampered or
   input-mismatched files are rejected and the stage recomputes. *)

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let temp_dir tag = Filename.temp_dir "potx_ckpt_" tag

let base_config () =
  let c = Timing_opc.Flow.default_config () in
  {
    c with
    Timing_opc.Flow.opc_config =
      { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 2 };
    slices = 3;
  }

let render (r : Timing_opc.Flow.run) =
  Format.asprintf "%a@.%a@.%a@.%a@."
    Cdex.Csv.write
    r.Timing_opc.Flow.cds Opc.Model_opc.pp_stats r.Timing_opc.Flow.opc_stats
    Sta.Timing.pp_summary r.Timing_opc.Flow.drawn_sta Sta.Timing.pp_summary
    r.Timing_opc.Flow.post_opc_sta

let netlist = lazy (Circuit.Generator.c17 ())

let run_with ckpt =
  Timing_opc.Flow.run
    { (base_config ()) with Timing_opc.Flow.checkpoint = ckpt }
    (Lazy.force netlist)

let test_run_roundtrip () =
  let dir = temp_dir "roundtrip" in
  let saved0 = counter "flow.checkpoint.saved" in
  let clean = run_with None in
  let first = run_with (Some (Timing_opc.Checkpoint.create ~dir ~resume:false)) in
  checki "both stages saved" 2 (counter "flow.checkpoint.saved" - saved0);
  let loaded0 = counter "flow.checkpoint.loaded" in
  let resumed = run_with (Some (Timing_opc.Checkpoint.create ~dir ~resume:true)) in
  checki "both stages loaded" 2 (counter "flow.checkpoint.loaded" - loaded0);
  checkb "checkpointing run = clean run" true (render first = render clean);
  checkb "resumed run = clean run" true (render resumed = render clean);
  (* The reloaded mask must answer window queries identically too. *)
  checkb "mask polygons identical" true
    (Opc.Mask.polygons resumed.Timing_opc.Flow.mask
    = Opc.Mask.polygons clean.Timing_opc.Flow.mask)

let test_run_selective_roundtrip () =
  let dir = temp_dir "selective" in
  let base = run_with None in
  let selected =
    Timing_opc.Flow.critical_gates base ~view:base.Timing_opc.Flow.post_opc_sta
      ~margin:5.0
  in
  checkb "some gates selected" true (selected <> []);
  let sel ckpt =
    Timing_opc.Flow.run_selective
      { base with Timing_opc.Flow.config = { base.Timing_opc.Flow.config with Timing_opc.Flow.checkpoint = ckpt } }
      ~selected
  in
  let clean = sel None in
  let saved0 = counter "flow.checkpoint.saved" in
  let first = sel (Some (Timing_opc.Checkpoint.create ~dir ~resume:false)) in
  checki "opc_sel and cds_sel saved" 2 (counter "flow.checkpoint.saved" - saved0);
  let loaded0 = counter "flow.checkpoint.loaded" in
  let resumed = sel (Some (Timing_opc.Checkpoint.create ~dir ~resume:true)) in
  checki "opc_sel and cds_sel loaded" 2 (counter "flow.checkpoint.loaded" - loaded0);
  checkb "selective checkpoint run = clean" true (render first = render clean);
  checkb "selective resume = clean" true (render resumed = render clean)

let tamper path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (text ^ "# tampered\n");
  close_out oc

let test_tampered_payload_rejected () =
  let dir = temp_dir "tamper" in
  let clean = run_with None in
  let ck = Timing_opc.Checkpoint.create ~dir ~resume:false in
  ignore (run_with (Some ck));
  tamper (Timing_opc.Checkpoint.payload_path ck "cds");
  let rejected0 = counter "flow.checkpoint.rejected" in
  let loaded0 = counter "flow.checkpoint.loaded" in
  let resumed = run_with (Some { ck with Timing_opc.Checkpoint.resume = true }) in
  checki "tampered cds rejected" 1 (counter "flow.checkpoint.rejected" - rejected0);
  checki "untouched opc still loads" 1 (counter "flow.checkpoint.loaded" - loaded0);
  checkb "recomputed output = clean run" true (render resumed = render clean)

let test_stale_inputs_rejected () =
  let dir = temp_dir "stale" in
  let ck = Timing_opc.Checkpoint.create ~dir ~resume:false in
  ignore (run_with (Some ck));
  (* Same directory, different silicon condition: both stage keys
     change (the mask key does not depend on the condition, but the
     seed below perturbs placement, hence the chip hash too). *)
  let altered resume =
    Timing_opc.Flow.run
      { (base_config ()) with
        Timing_opc.Flow.seed = 43;
        condition = Litho.Condition.make ~dose:1.03 ~defocus:60.0;
        checkpoint =
          (if resume then Some { ck with Timing_opc.Checkpoint.resume = true }
           else None) }
      (Lazy.force netlist)
  in
  let clean = altered false in
  let rejected0 = counter "flow.checkpoint.rejected" in
  let loaded0 = counter "flow.checkpoint.loaded" in
  let resumed = altered true in
  checki "no stale stage loads" 0 (counter "flow.checkpoint.loaded" - loaded0);
  checki "both stale stages rejected" 2 (counter "flow.checkpoint.rejected" - rejected0);
  checkb "recomputed output matches the new inputs" true (render resumed = render clean)

let () =
  Alcotest.run "checkpoint"
    [
      ( "resume",
        [
          Alcotest.test_case "run round-trip is byte-identical" `Slow test_run_roundtrip;
          Alcotest.test_case "run_selective round-trip is byte-identical" `Slow
            test_run_selective_roundtrip;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "tampered payload recomputes" `Slow
            test_tampered_payload_rejected;
          Alcotest.test_case "stale inputs recompute" `Slow test_stale_inputs_rejected;
        ] );
    ]
