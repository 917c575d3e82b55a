type config = {
  trials : int;
  sigma_global : float;
  sigma_local : float;
  mean_shift : float;
  clock_period : float;
}

type summary = {
  wns : float array;
  critical_delay : float array;
  endpoints : Circuit.Netlist.net array;
  arrivals : float array array;
}

let m_trials = Obs.Metrics.counter "sta.mc_trials"

let run ?(pool = Exec.Pool.sequential) env (netlist : Circuit.Netlist.t) ~loads config
    rng =
  if config.trials <= 0 then invalid_arg "Montecarlo.run: trials must be positive";
  Obs.Span.with_ ~name:"sta.montecarlo"
    ~attrs:(fun () -> [ ("trials", string_of_int config.trials) ])
  @@ fun () ->
  Obs.Metrics.add m_trials config.trials;
  let drawn = Circuit.Delay_model.drawn_lengths env.Circuit.Delay_model.tech in
  (* One independent generator per trial, derived sequentially from the
     caller's stream: trial results are then a pure function of the
     trial index, so the Monte-Carlo summary is bit-identical whether
     trials run sequentially or across a domain pool. *)
  let trial_rngs = Array.make config.trials rng in
  for trial = 0 to config.trials - 1 do
    trial_rngs.(trial) <- Stats.Rng.split rng
  done;
  let wns = Array.make config.trials 0.0 in
  let critical = Array.make config.trials 0.0 in
  let endpoints = Array.of_list netlist.Circuit.Netlist.primary_outputs in
  (* arrivals.(e).(trial): each trial writes its own column, so the
     matrix fills race-free under the pool. *)
  let arrivals =
    Array.map (fun _ -> Array.make config.trials 0.0) endpoints
  in
  let run_trial trial =
    let rng = trial_rngs.(trial) in
    let global = Stats.Rng.normal rng ~mean:config.mean_shift ~std:config.sigma_global in
    let per_gate = Hashtbl.create (Circuit.Netlist.num_gates netlist) in
    Array.iter
      (fun (g : Circuit.Netlist.gate) ->
        let local = Stats.Rng.normal rng ~mean:0.0 ~std:config.sigma_local in
        let dl = global +. local in
        Hashtbl.replace per_gate g.Circuit.Netlist.gname
          {
            Circuit.Delay_model.l_n = Float.max 20.0 (drawn.Circuit.Delay_model.l_n +. dl);
            l_p = Float.max 20.0 (drawn.Circuit.Delay_model.l_p +. dl);
          })
      netlist.Circuit.Netlist.gates;
    let delay =
      Timing.model_delay env ~lengths_of:(fun name -> Hashtbl.find_opt per_gate name)
    in
    let t = Timing.analyze netlist ~loads ~delay ~clock_period:config.clock_period () in
    wns.(trial) <- t.Timing.wns;
    critical.(trial) <- Timing.critical_delay t;
    let by_endpoint = Timing.path_delay_by_endpoint t in
    Array.iteri
      (fun e net ->
        match List.assoc_opt net by_endpoint with
        | Some arrival -> arrivals.(e).(trial) <- arrival
        | None -> ())
      endpoints
  in
  ignore (Exec.Pool.init ~label:"sta.montecarlo" pool config.trials run_trial);
  { wns; critical_delay = critical; endpoints; arrivals }

let fail_probability s =
  let fails = Array.fold_left (fun acc w -> if w < 0.0 then acc + 1 else acc) 0 s.wns in
  float_of_int fails /. float_of_int (Array.length s.wns)
