(* F6 — Monte-Carlo statistical timing vs the corner model.  The paper
   argues the corner model is simultaneously pessimistic (its slow
   corner shifts *every* gate) and blind to the extracted systematic
   mean; MC with global+local CD sigma shows where real spread sits. *)

let run () =
  Common.section "F6: Monte-Carlo CD-variation timing vs corners";
  let name = if !Common.quick then "c17" else "adder16" in
  let r = Common.flow_run name in
  let env = r.Timing_opc.Flow.config.Timing_opc.Flow.env in
  let netlist = r.Timing_opc.Flow.netlist in
  let loads = r.Timing_opc.Flow.loads in
  (* Systematic mean shift observed by extraction on this design. *)
  let mean_shift =
    let printed = List.filter (fun c -> c.Cdex.Gate_cd.printed) r.Timing_opc.Flow.cds in
    let vals = List.map Cdex.Gate_cd.delta_cd printed in
    List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
  in
  let mc =
    Common.with_pool (fun pool ->
        Sta.Montecarlo.run ~pool env netlist ~loads
          {
            Sta.Montecarlo.trials = (if !Common.quick then 60 else 300);
            sigma_global = 3.0;
            sigma_local = 1.5;
            mean_shift;
            clock_period = r.Timing_opc.Flow.clock_period;
          }
          (Stats.Rng.create Common.seed))
  in
  let s = Stats.Summary.of_array mc.Sta.Montecarlo.critical_delay in
  let corners = Timing_opc.Flow.corner_views r ~spread:8.0 in
  let corner n =
    let _, t =
      List.find (fun ((c : Sta.Corners.corner), _) -> c.Sta.Corners.name = n) corners
    in
    Sta.Timing.critical_delay t
  in
  Timing_opc.Report.table Common.ppf
    ~title:
      (Printf.sprintf
         "%s critical delay: MC (global 3nm, local 1.5nm, mean %+.2fnm) vs corners"
         name mean_shift)
    ~header:[ "view"; "delay" ]
    [
      [ "corner fast (-8nm)"; Timing_opc.Report.ps (corner "fast") ];
      [ "MC p05"; Timing_opc.Report.ps s.Stats.Summary.p05 ];
      [ "MC mean"; Timing_opc.Report.ps s.Stats.Summary.mean ];
      [ "MC p95"; Timing_opc.Report.ps s.Stats.Summary.p95 ];
      [ "MC max"; Timing_opc.Report.ps s.Stats.Summary.max ];
      [ "corner slow (+8nm)"; Timing_opc.Report.ps (corner "slow") ];
      [ "drawn (sign-off)"; Timing_opc.Report.ps (Sta.Timing.critical_delay r.Timing_opc.Flow.drawn_sta) ];
      [ "post-OPC extracted"; Timing_opc.Report.ps (Sta.Timing.critical_delay r.Timing_opc.Flow.post_opc_sta) ];
    ];
  Format.printf
    "@.MC fail probability at T=%s: %s@.Reading: the corner pair brackets the MC@.\
     distribution with heavy margin on both sides — corner guard-bands overstate@.\
     spread while missing the extraction-visible systematic mean shift.@."
    (Timing_opc.Report.ps r.Timing_opc.Flow.clock_period)
    (Timing_opc.Report.pct (Sta.Montecarlo.fail_probability mc))
