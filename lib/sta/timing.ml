module N = Circuit.Netlist

type delay_fn =
  gate:N.gate -> pin:int -> slew_in:float -> c_load:float -> Circuit.Delay_model.result

let nldm_delay lib ~gate ~pin ~slew_in ~c_load =
  ignore pin;
  let t = Circuit.Nldm.find lib gate.N.cell in
  Circuit.Nldm.lookup t ~slew_in ~c_load

let model_delay env ~lengths_of ~gate ~pin ~slew_in ~c_load =
  ignore pin;
  let cell = Circuit.Cell_lib.find gate.N.cell in
  let lengths =
    match lengths_of gate.N.gname with
    | Some l -> l
    | None -> Circuit.Delay_model.drawn_lengths env.Circuit.Delay_model.tech
  in
  Circuit.Delay_model.gate_delay env cell ~lengths ~slew_in ~c_load

type path = {
  endpoint : N.net;
  arrival : float;
  slack : float;
  gates : string list;
}

type t = {
  arrival : float array;
  slew : float array;
  paths : path list;
  wns : float;
  tns : float;
  clock_period : float;
  driver : int array;
  pred : int array;
}

let m_analyses = Obs.Metrics.counter "sta.analyses"

let m_paths = Obs.Metrics.counter "sta.paths"

let analyze (netlist : N.t) ~loads ~delay ?(input_slew = 20.0) ~clock_period () =
  Obs.Span.with_ ~name:"sta.analyze"
    ~attrs:(fun () -> [ ("nets", string_of_int netlist.N.num_nets) ])
  @@ fun () ->
  let n = netlist.N.num_nets in
  let arrival = Array.make n neg_infinity in
  let slew = Array.make n input_slew in
  (* For path recovery: which gate drives a net, and which of its input
     nets carried the latest arrival. *)
  let driver = Array.make n (-1) in
  let pred = Array.make n (-1) in
  List.iter
    (fun pi ->
      arrival.(pi) <- 0.0;
      slew.(pi) <- input_slew)
    netlist.N.primary_inputs;
  Array.iteri
    (fun gi (g : N.gate) ->
      let c_load = loads g.N.output in
      let best = ref neg_infinity and best_pred = ref (-1) and best_slew = ref input_slew in
      List.iteri
        (fun pin input ->
          if arrival.(input) > neg_infinity then begin
            let r = delay ~gate:g ~pin ~slew_in:slew.(input) ~c_load in
            let a = arrival.(input) +. r.Circuit.Delay_model.delay in
            if a > !best then begin
              best := a;
              best_pred := input;
              best_slew := r.Circuit.Delay_model.slew_out
            end
          end)
        g.N.inputs;
      if !best = neg_infinity then
        invalid_arg (Printf.sprintf "Timing.analyze: gate %s has no timed input" g.N.gname);
      arrival.(g.N.output) <- !best;
      slew.(g.N.output) <- !best_slew;
      driver.(g.N.output) <- gi;
      pred.(g.N.output) <- !best_pred)
    netlist.N.gates;
  let backtrack endpoint =
    let rec go net acc =
      if driver.(net) < 0 then acc
      else
        let g = netlist.N.gates.(driver.(net)) in
        go pred.(net) (g.N.gname :: acc)
    in
    go endpoint []
  in
  let paths =
    List.map
      (fun po ->
        let a = arrival.(po) in
        { endpoint = po; arrival = a; slack = clock_period -. a; gates = backtrack po })
      netlist.N.primary_outputs
    |> List.sort (fun p1 p2 -> Float.compare p1.slack p2.slack)
  in
  let wns = match paths with [] -> 0.0 | p :: _ -> p.slack in
  let tns =
    List.fold_left (fun acc p -> if p.slack < 0.0 then acc +. p.slack else acc) 0.0 paths
  in
  Obs.Metrics.incr m_analyses;
  Obs.Metrics.add m_paths (List.length paths);
  { arrival; slew; paths; wns; tns; clock_period; driver; pred }

let critical_delay t =
  match t.paths with [] -> 0.0 | p :: _ -> p.arrival

let path_delay_by_endpoint t = List.map (fun p -> (p.endpoint, p.arrival)) t.paths

let pp_path ppf p =
  Format.fprintf ppf "net%d: arr=%.1fps slack=%.1fps depth=%d [%s]" p.endpoint
    p.arrival p.slack (List.length p.gates)
    (String.concat ">" p.gates)

let pp_summary ppf t =
  Format.fprintf ppf "STA T=%.0fps: WNS=%.2fps TNS=%.2fps, %d endpoints"
    t.clock_period t.wns t.tns (List.length t.paths)
