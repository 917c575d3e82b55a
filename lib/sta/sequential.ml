module N = Circuit.Netlist

type reg = { rname : string; d : N.net; q : N.net }

type design = {
  netlist : N.t;
  regs : reg list;
  setup : float;
  clk_to_q : float;
}

type slack = {
  reg : reg option;
  endpoint : N.net;
  arrival : float;
  setup_slack : float;
}

type t = {
  comb : Timing.t;
  slacks : slack list;
  wns : float;
  clock_period : float;
}

let default_setup = 12.0

let default_clk_to_q = 25.0

let analyze design ~loads ~delay ~clock_period =
  let comb = Timing.analyze design.netlist ~loads ~delay ~clock_period () in
  let reg_of_d = Hashtbl.create (List.length design.regs) in
  List.iter (fun r -> Hashtbl.replace reg_of_d r.d r) design.regs;
  let slacks =
    List.map
      (fun (p : Timing.path) ->
        let endpoint = p.Timing.endpoint in
        let reg = Hashtbl.find_opt reg_of_d endpoint in
        let arrival = p.Timing.arrival in
        let setup_slack =
          match reg with
          | Some _ -> clock_period -. design.clk_to_q -. arrival -. design.setup
          | None -> clock_period -. arrival
        in
        { reg; endpoint; arrival; setup_slack })
      comb.Timing.paths
    |> List.sort (fun a b -> Float.compare a.setup_slack b.setup_slack)
  in
  let wns = match slacks with [] -> 0.0 | s :: _ -> s.setup_slack in
  { comb; slacks; wns; clock_period }

let min_period design ~loads ~delay =
  let t = analyze design ~loads ~delay ~clock_period:0.0 in
  (* slack(T) = T - cost; at T = 0, slack = -cost, so min T = -wns. *)
  -.t.wns

let pipeline rng ~stages ~width =
  if stages <= 0 || width <= 0 then invalid_arg "Sequential.pipeline: bad shape";
  let b = N.builder () in
  let cells2 = [| "NAND2_X1"; "NOR2_X1"; "XOR2_X1" |] in
  let cells1 = [| "INV_X1"; "BUF_X1"; "INV_X2" |] in
  let regs = ref [] in
  (* First rank launches from primary inputs. *)
  let launch = ref (Array.init width (fun _ ->
      let n = N.new_net b in
      N.mark_input b n;
      n))
  in
  for stage = 0 to stages - 1 do
    (* One or two ranks of logic between register boundaries. *)
    let logic_out =
      Array.mapi
        (fun i src ->
          let fan = 1 + Stats.Rng.int rng 2 in
          let out = N.new_net b in
          let gname = Printf.sprintf "s%d_g%d" stage i in
          (if fan = 1 then
             N.add_gate b ~gname ~cell:(Stats.Rng.choose rng cells1) ~inputs:[ src ]
               ~output:out
           else
             let other = !launch.(Stats.Rng.int rng width) in
             N.add_gate b ~gname ~cell:(Stats.Rng.choose rng cells2)
               ~inputs:[ src; other ] ~output:out);
          out)
        !launch
    in
    if stage = stages - 1 then
      (* Last stage captures into primary outputs. *)
      Array.iter (fun n -> N.mark_output b n) logic_out
    else begin
      (* Register boundary: D nets captured, fresh Q nets launched. *)
      let qs =
        Array.mapi
          (fun i d ->
            N.mark_output b d;
            let q = N.new_net b in
            N.mark_input b q;
            regs := { rname = Printf.sprintf "r%d_%d" stage i; d; q } :: !regs;
            q)
          logic_out
      in
      launch := qs
    end
  done;
  {
    netlist = N.finish b;
    regs = List.rev !regs;
    setup = default_setup;
    clk_to_q = default_clk_to_q;
  }
