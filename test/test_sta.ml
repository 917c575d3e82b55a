let tech = Layout.Tech.node90

let env = Circuit.Delay_model.default_env tech

let checkb = Alcotest.(check bool)

let drawn_delay () = Sta.Timing.model_delay env ~lengths_of:(fun _ -> None)

let analyze ?(clock = 1000.0) n =
  let loads = Circuit.Loads.of_netlist env n in
  Sta.Timing.analyze n ~loads ~delay:(drawn_delay ()) ~clock_period:clock ()

(* ---- Basic propagation ---- *)

let test_chain_arrival_accumulates () =
  let t5 = analyze (Circuit.Generator.inv_chain 5) in
  let t10 = analyze (Circuit.Generator.inv_chain 10) in
  checkb "10 slower than 5" true
    (Sta.Timing.critical_delay t10 > Sta.Timing.critical_delay t5);
  checkb "roughly doubles" true
    (Sta.Timing.critical_delay t10 > 1.6 *. Sta.Timing.critical_delay t5)

let test_chain_path_gates () =
  let n = Circuit.Generator.inv_chain 4 in
  let t = analyze n in
  match t.Sta.Timing.paths with
  | [ p ] ->
      Alcotest.(check (list string)) "path order"
        [ "inv0"; "inv1"; "inv2"; "inv3" ]
        p.Sta.Timing.gates
  | _ -> Alcotest.fail "expected one endpoint"

let test_slack_against_clock () =
  let n = Circuit.Generator.inv_chain 3 in
  let t = analyze ~clock:100.0 n in
  let crit = Sta.Timing.critical_delay t in
  Alcotest.(check (float 1e-6)) "slack = T - arrival" (100.0 -. crit) t.Sta.Timing.wns;
  let t2 = analyze ~clock:(crit /. 2.0) n in
  checkb "negative slack when clock too fast" true (t2.Sta.Timing.wns < 0.0);
  checkb "tns negative" true (t2.Sta.Timing.tns < 0.0)

let test_worst_input_selected () =
  (* A NAND2 fed by a long chain and a direct PI: the critical path must
     come through the chain. *)
  let b = Circuit.Netlist.builder () in
  let pi1 = Circuit.Netlist.new_net b in
  Circuit.Netlist.mark_input b pi1;
  let pi2 = Circuit.Netlist.new_net b in
  Circuit.Netlist.mark_input b pi2;
  let mid =
    List.fold_left
      (fun prev i ->
        let out = Circuit.Netlist.new_net b in
        Circuit.Netlist.add_gate b ~gname:(Printf.sprintf "c%d" i) ~cell:"INV_X1"
          ~inputs:[ prev ] ~output:out;
        out)
      pi1
      (List.init 6 Fun.id)
  in
  let y = Circuit.Netlist.new_net b in
  Circuit.Netlist.add_gate b ~gname:"merge" ~cell:"NAND2_X1" ~inputs:[ mid; pi2 ]
    ~output:y;
  Circuit.Netlist.mark_output b y;
  let n = Circuit.Netlist.finish b in
  let t = analyze n in
  match t.Sta.Timing.paths with
  | p :: _ ->
      checkb "path goes through chain" true (List.mem "c5" p.Sta.Timing.gates);
      Alcotest.(check int) "depth" 7 (List.length p.Sta.Timing.gates)
  | [] -> Alcotest.fail "no path"

let test_paths_sorted_by_slack () =
  let rng = Stats.Rng.create 3 in
  let n = Circuit.Generator.random_logic rng ~levels:6 ~width:8 in
  let t = analyze n in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Sta.Timing.slack <= b.Sta.Timing.slack && sorted rest
    | [ _ ] | [] -> true
  in
  checkb "sorted critical first" true (sorted t.Sta.Timing.paths)

let test_nldm_vs_model_agree () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let lib = Circuit.Nldm.build_library env in
  let t_model =
    Sta.Timing.analyze n ~loads ~delay:(drawn_delay ()) ~clock_period:1000.0 ()
  in
  let t_nldm =
    Sta.Timing.analyze n ~loads ~delay:(Sta.Timing.nldm_delay lib) ~clock_period:1000.0 ()
  in
  let a = Sta.Timing.critical_delay t_model and b = Sta.Timing.critical_delay t_nldm in
  checkb "within 2%" true (Float.abs (a -. b) /. a < 0.02)

let test_annotated_lengths_shift_delay () =
  let n = Circuit.Generator.inv_chain 6 in
  let loads = Circuit.Loads.of_netlist env n in
  let slow = { Circuit.Delay_model.l_n = 96.0; l_p = 96.0 } in
  let t_slow =
    Sta.Timing.analyze n ~loads
      ~delay:(Sta.Timing.model_delay env ~lengths_of:(fun _ -> Some slow))
      ~clock_period:1000.0 ()
  in
  let t_drawn = analyze n in
  checkb "longer gates slow the chain" true
    (Sta.Timing.critical_delay t_slow > Sta.Timing.critical_delay t_drawn)

(* ---- Corners ---- *)

let test_corner_ordering () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let delays =
    List.map
      (fun c ->
        (c.Sta.Corners.name,
         Sta.Timing.critical_delay
           (Sta.Corners.analyze env n ~loads c ~clock_period:500.0)))
      (Sta.Corners.classic ~spread:8.0)
  in
  let get name = List.assoc name delays in
  checkb "fast < nominal" true (get "fast" < get "nominal");
  checkb "nominal < slow" true (get "nominal" < get "slow")

(* ---- Monte Carlo ---- *)

let mc_config =
  {
    Sta.Montecarlo.trials = 40;
    sigma_global = 3.0;
    sigma_local = 1.5;
    mean_shift = 0.0;
    clock_period = 500.0;
  }

let test_montecarlo_deterministic () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let run seed =
    Sta.Montecarlo.run env n ~loads mc_config (Stats.Rng.create seed)
  in
  let a = run 5 and b = run 5 in
  Alcotest.(check (array (float 1e-9))) "same seed same wns" a.Sta.Montecarlo.wns
    b.Sta.Montecarlo.wns

let test_montecarlo_spread () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let s = Sta.Montecarlo.run env n ~loads mc_config (Stats.Rng.create 11) in
  let summary = Stats.Summary.of_array s.Sta.Montecarlo.critical_delay in
  checkb "variation present" true (summary.Stats.Summary.std > 0.1);
  checkb "fail probability in [0,1]" true
    (let p = Sta.Montecarlo.fail_probability s in
     p >= 0.0 && p <= 1.0)

(* Pin the oracle before SSTA diffs against it (test_ssta.ml): two
   disjoint seed streams at a fixed trial count must agree on the
   critical-delay mean within CLT bounds and on sigma within 20%. *)
let test_montecarlo_convergence () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let trials = 400 in
  let run seed =
    Stats.Summary.of_array
      (Sta.Montecarlo.run env n ~loads
         { mc_config with Sta.Montecarlo.trials }
         (Stats.Rng.create seed))
        .Sta.Montecarlo.critical_delay
  in
  let a = run 1001 and b = run 2002 in
  let se = a.Stats.Summary.std /. sqrt (float_of_int trials) in
  checkb "means within 4 standard errors" true
    (Float.abs (a.Stats.Summary.mean -. b.Stats.Summary.mean) < 4.0 *. sqrt 2.0 *. se);
  checkb "sigmas within 20%" true
    (Float.abs (a.Stats.Summary.std -. b.Stats.Summary.std)
    < 0.2 *. a.Stats.Summary.std)

let test_montecarlo_endpoint_arrivals () =
  (* The per-endpoint sample matrix the SSTA differential reads: one
     column per trial, max over endpoints = the critical delay. *)
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let s = Sta.Montecarlo.run env n ~loads mc_config (Stats.Rng.create 17) in
  Alcotest.(check int) "one row per primary output"
    (List.length n.Circuit.Netlist.primary_outputs)
    (Array.length s.Sta.Montecarlo.endpoints);
  Array.iteri
    (fun trial crit ->
      let worst =
        Array.fold_left
          (fun acc col -> Float.max acc col.(trial))
          neg_infinity s.Sta.Montecarlo.arrivals
      in
      Alcotest.(check (float 1e-9)) "max arrival = critical delay" crit worst)
    s.Sta.Montecarlo.critical_delay

let test_montecarlo_mean_shift () =
  let n = Circuit.Generator.inv_chain 5 in
  let loads = Circuit.Loads.of_netlist env n in
  let run shift =
    let s =
      Sta.Montecarlo.run env n ~loads
        { mc_config with Sta.Montecarlo.mean_shift = shift; trials = 30 }
        (Stats.Rng.create 3)
    in
    Stats.Summary.mean s.Sta.Montecarlo.critical_delay
  in
  checkb "positive shift slows" true (run 4.0 > run 0.0)

(* ---- Path report ---- *)

let test_path_report_stages () =
  let n = Circuit.Generator.inv_chain 4 in
  let t = analyze ~clock:100.0 n in
  match t.Sta.Timing.paths with
  | [ p ] ->
      let st = Sta.Path_report.stages n t p in
      Alcotest.(check int) "four stages" 4 (List.length st);
      (* Increments sum to the endpoint arrival. *)
      let total = List.fold_left (fun acc (_, _, incr, _) -> acc +. incr) 0.0 st in
      Alcotest.(check (float 1e-6)) "increments sum" p.Sta.Timing.arrival total;
      (* Arrivals are monotone along the path. *)
      let rec mono prev = function
        | (_, _, _, a) :: rest -> a > prev && mono a rest
        | [] -> true
      in
      checkb "monotone arrivals" true (mono 0.0 st)
  | _ -> Alcotest.fail "one endpoint expected"

let test_path_report_renders () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let t = analyze ~clock:200.0 n in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Sta.Path_report.write ppf n t ~top:3;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "header" true (contains "Timing report");
  checkb "path 1" true (contains "Path #1");
  checkb "path 3" true (contains "Path #3");
  checkb "no path 4" true (not (contains "Path #4"))

(* ---- Incremental ---- *)

let test_incremental_matches_full () =
  let rng = Stats.Rng.create 13 in
  let n = Circuit.Generator.random_logic rng ~levels:8 ~width:10 in
  let loads = Circuit.Loads.of_netlist env n in
  let base = analyze ~clock:800.0 n in
  (* New delay view: a few instances get longer channels. *)
  let slow = { Circuit.Delay_model.l_n = 97.0; l_p = 97.0 } in
  let victims = [ "r3_25"; "r4_31"; "r5_45" ] in
  let victims = List.filter (fun v -> Circuit.Netlist.find_gate n v <> None) victims in
  Alcotest.(check bool) "victims exist" true (victims <> []);
  let delay2 =
    Sta.Timing.model_delay env ~lengths_of:(fun name ->
        if List.mem name victims then Some slow else None)
  in
  let full = Sta.Timing.analyze n ~loads ~delay:delay2 ~clock_period:800.0 () in
  let inc, reevaluated =
    Sta.Incremental.update n ~previous:base ~changed:victims ~loads ~delay:delay2 ()
  in
  Alcotest.(check (float 1e-6)) "same WNS" full.Sta.Timing.wns inc.Sta.Timing.wns;
  Array.iteri
    (fun i a -> Alcotest.(check (float 1e-6)) "arrival matches" a inc.Sta.Timing.arrival.(i))
    full.Sta.Timing.arrival;
  checkb "fewer gates re-evaluated" true (reevaluated < Circuit.Netlist.num_gates n)

let test_incremental_no_change_is_cheap () =
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let base = analyze ~clock:500.0 n in
  let inc, reevaluated =
    Sta.Incremental.update n ~previous:base ~changed:[] ~loads ~delay:(drawn_delay ()) ()
  in
  Alcotest.(check int) "nothing re-evaluated" 0 reevaluated;
  Alcotest.(check (float 1e-9)) "same WNS" base.Sta.Timing.wns inc.Sta.Timing.wns

(* Differential property: on random netlists with random changed-gate
   sets, the incremental update must agree with a full reanalysis —
   arrivals, slews, per-endpoint slacks, the critical-path order — and
   may never re-evaluate more gates than the netlist has. *)
let incremental_differential =
  QCheck.Test.make ~name:"incremental update = full reanalysis" ~count:40
    QCheck.(
      quad (int_range 0 9999) (int_range 3 6) (int_range 3 6) (int_range 0 999))
    (fun (seed, levels, width, sel) ->
      let n =
        Circuit.Generator.random_logic (Stats.Rng.create seed) ~levels ~width
      in
      let loads = Circuit.Loads.of_netlist env n in
      let base =
        Sta.Timing.analyze n ~loads ~delay:(drawn_delay ()) ~clock_period:800.0 ()
      in
      let pick = Stats.Rng.create (Hashtbl.hash (seed, sel)) in
      let changed =
        Array.to_list n.Circuit.Netlist.gates
        |> List.filter_map (fun (g : Circuit.Netlist.gate) ->
               if Stats.Rng.float pick < 0.25 then Some g.Circuit.Netlist.gname
               else None)
      in
      let lengths_of name =
        if List.mem name changed then
          let h = Hashtbl.hash (name, sel) in
          Some
            {
              Circuit.Delay_model.l_n = 84.0 +. float_of_int (h mod 13);
              l_p = 86.0 +. float_of_int (h mod 11);
            }
        else None
      in
      let delay2 = Sta.Timing.model_delay env ~lengths_of in
      let full = Sta.Timing.analyze n ~loads ~delay:delay2 ~clock_period:800.0 () in
      let inc, reevaluated =
        Sta.Incremental.update n ~previous:base ~changed ~loads ~delay:delay2 ()
      in
      let close a b = Float.abs (a -. b) <= 1e-6 in
      Array.for_all2 close full.Sta.Timing.arrival inc.Sta.Timing.arrival
      && Array.for_all2 close full.Sta.Timing.slew inc.Sta.Timing.slew
      && close full.Sta.Timing.wns inc.Sta.Timing.wns
      && close full.Sta.Timing.tns inc.Sta.Timing.tns
      && List.length full.Sta.Timing.paths = List.length inc.Sta.Timing.paths
      && List.for_all2
           (fun (a : Sta.Timing.path) (b : Sta.Timing.path) ->
             a.Sta.Timing.endpoint = b.Sta.Timing.endpoint
             && close a.Sta.Timing.slack b.Sta.Timing.slack
             && a.Sta.Timing.gates = b.Sta.Timing.gates)
           full.Sta.Timing.paths inc.Sta.Timing.paths
      && reevaluated <= Circuit.Netlist.num_gates n
      && (changed <> [] || reevaluated = 0))

(* ---- Path-enumeration oracle ---- *)

(* A random DAG of [gates] gates over [pis] primary inputs: each gate
   reads one to three distinct nets among the inputs and the outputs of
   the gates before it.  Every gate output nothing reads is an
   endpoint, and so is about a quarter of the others. *)
let random_dag rng ~pis ~gates =
  let module N = Circuit.Netlist in
  let b = N.builder () in
  let avail =
    ref
      (Array.init pis (fun _ ->
           let n = N.new_net b in
           N.mark_input b n;
           n))
  in
  let read = Hashtbl.create 16 in
  let outs =
    List.init gates (fun i ->
        let pool = Array.copy !avail in
        Stats.Rng.shuffle rng pool;
        let k = min (Array.length pool) (1 + Stats.Rng.int rng 3) in
        let inputs = Array.to_list (Array.sub pool 0 k) in
        let cell = [| "INV_X1"; "NAND2_X1"; "NAND3_X1" |].(k - 1) in
        let output = N.new_net b in
        N.add_gate b ~gname:(Printf.sprintf "g%d" i) ~cell ~inputs ~output;
        List.iter (fun n -> Hashtbl.replace read n ()) inputs;
        avail := Array.append !avail [| output |];
        output)
  in
  List.iter
    (fun o -> if (not (Hashtbl.mem read o)) || Stats.Rng.int rng 4 = 0 then N.mark_output b o)
    outs;
  N.finish b

(* Every input-to-[net] path as its (gate, pin) arcs in path order. *)
let rec enumerate_paths (n : Circuit.Netlist.t) net =
  match Circuit.Netlist.driver n net with
  | None -> [ [] ]
  | Some g ->
      List.concat
        (List.mapi
           (fun pin input ->
             List.map (fun p -> p @ [ (g, pin) ]) (enumerate_paths n input))
           g.Circuit.Netlist.inputs)

(* With a delay that ignores [slew_in], graph-based arrival is the
   longest path: at every endpoint [analyze]'s arrival equals the
   largest enumerated path delay, each summed from 0 in path order,
   and the reported path is one that attains it.  Delays take few
   distinct values so that maximising paths tie. *)
let path_enumeration_oracle =
  QCheck.Test.make ~name:"frozen-slew arrival = worst enumerated path" ~count:300
    QCheck.(triple (int_range 0 99999) (int_range 1 4) (int_range 1 12))
    (fun (seed, pis, gates) ->
      let n = random_dag (Stats.Rng.create seed) ~pis ~gates in
      let arc_delay (g : Circuit.Netlist.gate) pin =
        0.1 *. float_of_int (1 + (Hashtbl.hash (seed, g.Circuit.Netlist.gname, pin) mod 7))
      in
      let delay ~gate ~pin ~slew_in:_ ~c_load:_ =
        { Circuit.Delay_model.delay = arc_delay gate pin; slew_out = 0.0 }
      in
      let t =
        Sta.Timing.analyze n ~loads:(fun _ -> 1.0) ~delay ~clock_period:100.0 ()
      in
      let path_delay =
        List.fold_left (fun acc (g, pin) -> acc +. arc_delay g pin) 0.0
      in
      List.length t.Sta.Timing.paths = List.length n.Circuit.Netlist.primary_outputs
      && List.for_all
           (fun (p : Sta.Timing.path) ->
             let paths = enumerate_paths n p.Sta.Timing.endpoint in
             let worst =
               List.fold_left (fun m q -> Float.max m (path_delay q)) neg_infinity paths
             in
             p.Sta.Timing.arrival = worst
             && t.Sta.Timing.arrival.(p.Sta.Timing.endpoint) = worst
             && List.exists
                  (fun q ->
                    path_delay q = worst
                    && List.map (fun ((g : Circuit.Netlist.gate), _) -> g.Circuit.Netlist.gname) q
                       = p.Sta.Timing.gates)
                  paths)
           t.Sta.Timing.paths)

(* ---- Sequential ---- *)

let pipe = lazy (Sta.Sequential.pipeline (Stats.Rng.create 9) ~stages:4 ~width:6)

let seq_analyze ?(clock = 500.0) design =
  let loads = Circuit.Loads.of_netlist env design.Sta.Sequential.netlist in
  Sta.Sequential.analyze design ~loads ~delay:(drawn_delay ()) ~clock_period:clock

let test_pipeline_structure () =
  let d = Lazy.force pipe in
  (* 4 stages -> 3 register boundaries x width regs. *)
  Alcotest.(check int) "register count" 18 (List.length d.Sta.Sequential.regs);
  (* Every reg D is a PO and every Q a PI of the combinational view. *)
  List.iter
    (fun (r : Sta.Sequential.reg) ->
      checkb "d is endpoint" true
        (List.mem r.Sta.Sequential.d d.Sta.Sequential.netlist.Circuit.Netlist.primary_outputs);
      checkb "q is startpoint" true
        (List.mem r.Sta.Sequential.q d.Sta.Sequential.netlist.Circuit.Netlist.primary_inputs))
    d.Sta.Sequential.regs

let test_sequential_slack_formula () =
  let d = Lazy.force pipe in
  let t = seq_analyze ~clock:500.0 d in
  List.iter
    (fun (s : Sta.Sequential.slack) ->
      match s.Sta.Sequential.reg with
      | Some _ ->
          Alcotest.(check (float 1e-6)) "setup slack formula"
            (500.0 -. Sta.Sequential.default_clk_to_q -. s.Sta.Sequential.arrival
            -. Sta.Sequential.default_setup)
            s.Sta.Sequential.setup_slack
      | None ->
          Alcotest.(check (float 1e-6)) "po slack" (500.0 -. s.Sta.Sequential.arrival)
            s.Sta.Sequential.setup_slack)
    t.Sta.Sequential.slacks

let test_sequential_register_capture_tighter () =
  (* With setup + clk-to-q overhead, a register capture is tighter than
     a plain PO at the same arrival. *)
  let d = Lazy.force pipe in
  let t = seq_analyze d in
  let reg_slacks =
    List.filter (fun s -> s.Sta.Sequential.reg <> None) t.Sta.Sequential.slacks
  in
  checkb "register endpoints exist" true (reg_slacks <> [])

let test_min_period () =
  let d = Lazy.force pipe in
  let loads = Circuit.Loads.of_netlist env d.Sta.Sequential.netlist in
  let tmin = Sta.Sequential.min_period d ~loads ~delay:(drawn_delay ()) in
  checkb "positive" true (tmin > 0.0);
  let at = seq_analyze ~clock:tmin d in
  Alcotest.(check (float 0.01)) "zero slack at min period" 0.0 at.Sta.Sequential.wns;
  let under = seq_analyze ~clock:(tmin -. 5.0) d in
  checkb "fails below" true (under.Sta.Sequential.wns < 0.0)

let test_sequential_deterministic () =
  let d1 = Sta.Sequential.pipeline (Stats.Rng.create 9) ~stages:4 ~width:6 in
  let d2 = Sta.Sequential.pipeline (Stats.Rng.create 9) ~stages:4 ~width:6 in
  Alcotest.(check int) "same gates"
    (Circuit.Netlist.num_gates d1.Sta.Sequential.netlist)
    (Circuit.Netlist.num_gates d2.Sta.Sequential.netlist)

let () =
  Alcotest.run "sta"
    [
      ( "timing",
        [
          Alcotest.test_case "chain accumulates" `Quick test_chain_arrival_accumulates;
          Alcotest.test_case "path gates" `Quick test_chain_path_gates;
          Alcotest.test_case "slack" `Quick test_slack_against_clock;
          Alcotest.test_case "worst input" `Quick test_worst_input_selected;
          Alcotest.test_case "paths sorted" `Quick test_paths_sorted_by_slack;
          Alcotest.test_case "nldm vs model" `Quick test_nldm_vs_model_agree;
          Alcotest.test_case "annotation shifts" `Quick test_annotated_lengths_shift_delay;
        ] );
      ("corners", [ Alcotest.test_case "ordering" `Quick test_corner_ordering ]);
      ( "montecarlo",
        [
          Alcotest.test_case "deterministic" `Quick test_montecarlo_deterministic;
          Alcotest.test_case "spread" `Quick test_montecarlo_spread;
          Alcotest.test_case "convergence" `Quick test_montecarlo_convergence;
          Alcotest.test_case "endpoint arrivals" `Quick
            test_montecarlo_endpoint_arrivals;
          Alcotest.test_case "mean shift" `Quick test_montecarlo_mean_shift;
        ] );
      ( "path-report",
        [
          Alcotest.test_case "stages" `Quick test_path_report_stages;
          Alcotest.test_case "renders" `Quick test_path_report_renders;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "matches full" `Quick test_incremental_matches_full;
          Alcotest.test_case "no change" `Quick test_incremental_no_change_is_cheap;
          QCheck_alcotest.to_alcotest incremental_differential;
        ] );
      ("oracle", [ QCheck_alcotest.to_alcotest path_enumeration_oracle ]);
      ( "sequential",
        [
          Alcotest.test_case "pipeline structure" `Quick test_pipeline_structure;
          Alcotest.test_case "slack formula" `Quick test_sequential_slack_formula;
          Alcotest.test_case "register capture" `Quick test_sequential_register_capture_tighter;
          Alcotest.test_case "min period" `Quick test_min_period;
          Alcotest.test_case "deterministic" `Quick test_sequential_deterministic;
        ] );
    ]
