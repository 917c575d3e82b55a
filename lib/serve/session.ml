module Flow = Timing_opc.Flow

type t = {
  bench : string;
  run : Flow.run;
  pool : Exec.Pool.t option;  (* session-owned, shared across requests *)
  lengths : string -> Circuit.Delay_model.lengths option;  (* memoised *)
  counters : (string, int ref) Hashtbl.t;
  mutable ssta_view : Flow.ssta_view option;
      (* computed on first ssta query, then served warm; the view is a
         deterministic pure function of the run, so memoisation never
         changes response bytes *)
  mutable next_seq : int;
  mutable closed : bool;
}

let create ?(bench = "?") config netlist =
  let run = Flow.run config netlist in
  let pool =
    if config.Flow.domains > 1 then
      Some (Exec.Pool.create ~name:"serve" ~domains:config.Flow.domains ())
    else None
  in
  {
    bench;
    run;
    pool;
    lengths = Flow.lengths_of run;
    counters = Hashtbl.create 16;
    ssta_view = None;
    next_seq = 0;
    closed = false;
  }

let run t = t.run

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter Exec.Pool.shutdown t.pool
  end

(* Session-local counters drive the [metrics] verb (so replies depend
   only on this session's history); the global registry mirror is for
   --metrics dumps and obs-check. *)
let bump t name =
  (match Hashtbl.find_opt t.counters name with
  | Some r -> incr r
  | None -> Hashtbl.add t.counters name (ref 1));
  Obs.Metrics.incr (Obs.Metrics.counter name)

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- verb implementations --------------------------------------- *)

let ( let* ) = Result.bind

let path_report (p : Sta.Timing.path) =
  {
    Protocol.endpoint = p.Sta.Timing.endpoint;
    arrival = p.Sta.Timing.arrival;
    slack = p.Sta.Timing.slack;
    gates = p.Sta.Timing.gates;
  }

let worst_path (timing : Sta.Timing.t) = function
  | None -> (
      match timing.Sta.Timing.paths with
      | p :: _ -> Ok p
      | [] -> Error "netlist has no endpoints")
  | Some endpoint -> (
      match
        List.find_opt
          (fun (p : Sta.Timing.path) -> p.Sta.Timing.endpoint = endpoint)
          timing.Sta.Timing.paths
      with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "unknown endpoint net %d" endpoint))

let status t =
  let r = t.run in
  let netlist = r.Flow.netlist in
  Ok
    (Protocol.Status_r
       {
         bench = t.bench;
         gates = Circuit.Netlist.num_gates netlist;
         nets = netlist.Circuit.Netlist.num_nets;
         clock_period = r.Flow.clock_period;
         drawn_wns = r.Flow.drawn_sta.Sta.Timing.wns;
         wns = r.Flow.post_opc_sta.Sta.Timing.wns;
         tns = r.Flow.post_opc_sta.Sta.Timing.tns;
         cds = List.length r.Flow.cds;
       })

(* Revalidate the warm timing view through Sta.Incremental (an empty
   changed set re-times nothing) and report the requested path. *)
let retime t endpoint =
  let timing, reevaluated =
    Flow.retime t.run ~changed:[] ~lengths_of:t.lengths ()
  in
  let* p = worst_path timing endpoint in
  Ok (Protocol.Retime_r { path = path_report p; reevaluated })

let resize t gate dl =
  match Circuit.Netlist.find_gate t.run.Flow.netlist gate with
  | None -> Error (Printf.sprintf "unknown gate %S" gate)
  | Some _ ->
      let drawn =
        Circuit.Delay_model.drawn_lengths t.run.Flow.config.Flow.tech
      in
      let base = Option.value (t.lengths gate) ~default:drawn in
      let l_n = base.Circuit.Delay_model.l_n +. dl
      and l_p = base.Circuit.Delay_model.l_p +. dl in
      let* () =
        if l_n > 0.0 && l_p > 0.0 then Ok ()
        else
          Error
            (Printf.sprintf "dl %g leaves gate %S a non-positive channel length"
               dl gate)
      in
      let lengths_of name =
        if String.equal name gate then Some { Circuit.Delay_model.l_n; l_p }
        else t.lengths name
      in
      let timing, reevaluated =
        Flow.retime t.run ~changed:[ gate ] ~lengths_of ()
      in
      let* p = worst_path timing None in
      Ok
        (Protocol.Whatif_r
           {
             gate;
             wns_before = t.run.Flow.post_opc_sta.Sta.Timing.wns;
             wns_after = timing.Sta.Timing.wns;
             worst = path_report p;
             reevaluated;
             remeasured = 0;
           })

let inst_gate_rects chip inst =
  List.filter_map
    (fun (g : Layout.Chip.gate_ref) ->
      if String.equal g.Layout.Chip.inst inst then Some g.Layout.Chip.gate
      else None)
    (Layout.Chip.gates chip)

(* A move longer than the die is refused before any flow work: the
   moved die, and with it the OPC tile grid, would grow with the
   distance. *)
let check_move_reach chip ~dx ~dy =
  match Layout.Chip.die chip with
  | Some die ->
      let w = Geometry.Rect.width die and h = Geometry.Rect.height die in
      if dx < -w || dx > w || dy < -h || dy > h then
        Error
          (Printf.sprintf "move (%d, %d) nm reaches past the %d x %d nm die" dx
             dy w h)
      else Ok ()
  | None -> Error "chip has no die"

let move t gate dx dy =
  let r = t.run in
  let config = r.Flow.config in
  match Layout.Chip.find_instance r.Flow.chip gate with
  | None -> Error (Printf.sprintf "unknown instance %S" gate)
  | Some _ ->
      let* () = check_move_reach r.Flow.chip ~dx ~dy in
      let chip = Layout.Chip.move r.Flow.chip ~inst:gate ~dx ~dy in
      let mask, _opc_stats = Flow.reopc_chip ?pool:t.pool r chip in
      (* Gate sites whose aerial image the move can reach: the hull of
         the old and new instance footprints, inflated by the optical
         halo plus a full tile on each side (tiles are simulated
         whole, so a dirtied tile re-measures everything in it). *)
      let halo = (Flow.litho_model config).Litho.Model.halo in
      let reach = (2 * config.Flow.tile) + (2 * halo) in
      let die_changed =
        match (Layout.Chip.die r.Flow.chip, Layout.Chip.die chip) with
        | Some a, Some b -> not (Geometry.Rect.equal a b)
        | _ -> true
      in
      let gates =
        if die_changed then Layout.Chip.gates chip
        else
          let footprint =
            Geometry.Rect.hull_of_list
              (inst_gate_rects r.Flow.chip gate @ inst_gate_rects chip gate)
          in
          let region = Geometry.Rect.inflate footprint reach in
          Cdex.Extract.gates_in ~region (Layout.Chip.gates chip)
      in
      let fresh = Flow.extract_at ?pool:t.pool ~gates ~chip ~mask r in
      (* Splice re-measured sites into the warm records by gate key:
         silicon noise is seeded per (seed, gate key), so a subset
         re-extraction is bit-identical to the full one. *)
      let by_key = Hashtbl.create (List.length fresh) in
      List.iter
        (fun (c : Cdex.Gate_cd.t) ->
          Hashtbl.replace by_key (Layout.Chip.gate_key c.Cdex.Gate_cd.gate) c)
        fresh;
      let cds =
        List.map
          (fun (c : Cdex.Gate_cd.t) ->
            match
              Hashtbl.find_opt by_key (Layout.Chip.gate_key c.Cdex.Gate_cd.gate)
            with
            | Some f -> f
            | None -> c)
          r.Flow.cds
      in
      let annotation = Flow.annotate config cds in
      let lengths_of = Flow.lengths_of_annotation annotation r.Flow.netlist in
      let changed =
        Array.to_list r.Flow.netlist.Circuit.Netlist.gates
        |> List.filter_map (fun (g : Circuit.Netlist.gate) ->
               let name = g.Circuit.Netlist.gname in
               if t.lengths name = lengths_of name then None else Some name)
      in
      let timing, reevaluated =
        Flow.retime t.run ~changed ~lengths_of ()
      in
      let* p = worst_path timing None in
      Ok
        (Protocol.Whatif_r
           {
             gate;
             wns_before = r.Flow.post_opc_sta.Sta.Timing.wns;
             wns_after = timing.Sta.Timing.wns;
             worst = path_report p;
             reevaluated;
             remeasured = List.length gates;
           })

let cd_record (c : Cdex.Gate_cd.t) =
  {
    Protocol.gate = Layout.Chip.gate_key c.Cdex.Gate_cd.gate;
    cd =
      (if c.Cdex.Gate_cd.printed then Cdex.Gate_cd.mean_cd c
       else float_of_int c.Cdex.Gate_cd.gate.Layout.Chip.drawn_l);
    delta = (if c.Cdex.Gate_cd.printed then Cdex.Gate_cd.delta_cd c else 0.0);
    printed = c.Cdex.Gate_cd.printed;
  }

let cds t region =
  let records =
    match region with
    | None -> t.run.Flow.cds
    | Some region ->
        List.filter
          (fun (c : Cdex.Gate_cd.t) ->
            Cdex.Extract.in_region ~region c.Cdex.Gate_cd.gate)
          t.run.Flow.cds
  in
  Ok (Protocol.Cds_r (List.map cd_record records))

(* Re-measure every gate at the requested process condition (tile
   cache absorbs repeats across corner queries) and re-time under the
   resulting annotation. *)
let corner t ~dose ~defocus ~spread =
  let r = t.run in
  let condition = Litho.Condition.make ~dose ~defocus in
  let cds = Flow.extract_at ?pool:t.pool ~condition r in
  let annotation = Flow.annotate r.Flow.config cds in
  let timing =
    Flow.time_with r
      ~lengths_of:(Flow.lengths_of_annotation annotation r.Flow.netlist)
  in
  let corners =
    match spread with
    | None -> []
    | Some spread ->
        List.map
          (fun ((c : Sta.Corners.corner), (view : Sta.Timing.t)) ->
            (c.Sta.Corners.name, view.Sta.Timing.wns))
          (Flow.corner_views r ~spread)
  in
  Ok
    (Protocol.Corner_r
       {
         dose;
         defocus;
         wns = timing.Sta.Timing.wns;
         tns = timing.Sta.Timing.tns;
         corners;
       })

let ssta_view t =
  match t.ssta_view with
  | Some v -> v
  | None ->
      let v = Flow.ssta ?pool:t.pool t.run in
      t.ssta_view <- Some v;
      v

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let ssta t top =
  let v = ssta_view t in
  let s = v.Flow.ssta in
  let endpoints =
    List.map
      (fun (e : Sta.Ssta.endpoint) ->
        {
          Protocol.net = e.Sta.Ssta.net;
          slack_mean = e.Sta.Ssta.slack_mean;
          slack_sigma = e.Sta.Ssta.slack_sigma;
          criticality = e.Sta.Ssta.criticality;
        })
      s.Sta.Ssta.endpoints
  in
  let endpoints =
    match top with
    | None -> endpoints
    | Some n when n < 0 -> endpoints
    | Some n -> take n endpoints
  in
  Ok
    (Protocol.Ssta_r
       {
         clock_period = s.Sta.Ssta.clock_period;
         wns_mean = Sta.Ssta.wns_mean s;
         wns_sigma = Sta.Ssta.wns_sigma s;
         fail_probability = Sta.Ssta.fail_probability s;
         shift = v.Flow.variation.Sta.Ssta.mean_shift;
         global_sigma = v.Flow.variation.Sta.Ssta.sigma_global;
         local_sigma = v.Flow.variation.Sta.Ssta.sigma_local;
         conditions = v.Flow.fit.Sta.Ssta.conditions;
         endpoints;
       })

let rec handle t (request : Protocol.request) =
  match request with
  | Protocol.Status -> status t
  | Protocol.Retime { endpoint } -> retime t endpoint
  | Protocol.Whatif { gate; change = Protocol.Resize { dl } } ->
      resize t gate dl
  | Protocol.Whatif { gate; change = Protocol.Move { dx; dy } } ->
      move t gate dx dy
  | Protocol.Cds { region } -> cds t region
  | Protocol.Corner { dose; defocus; spread } -> corner t ~dose ~defocus ~spread
  | Protocol.Ssta { top } -> ssta t top
  | Protocol.Metrics { all } ->
      Ok
        (Protocol.Metrics_r
           {
             counters = counters t;
             registry =
               (if all then Some (Obs.Metrics.snapshot Obs.Metrics.global)
                else None);
           })
  | Protocol.Profile { target } -> profile t target
  | Protocol.Shutdown -> Ok Protocol.Shutdown_r

(* Run the target request under span tracing and reply with its span
   tree as a Chrome-trace object.  When the process is already
   tracing (e.g. `potx serve --trace`), the live log is left alone
   and the reply carries the slice recorded during the target; when
   it is not, tracing is enabled only for the duration of the target,
   so profiling one request never perturbs another's span log. *)
and profile t target =
  let was_enabled = Obs.Span.enabled () in
  let mark =
    if was_enabled then
      List.fold_left
        (fun acc (e : Obs.Span.event) -> max acc e.Obs.Span.id)
        (-1) (Obs.Span.events ())
    else begin
      Obs.Span.enable ();
      -1
    end
  in
  (* The log survives [disable], so restoring the tracing state first
     (even when the target raises) still leaves its spans readable. *)
  let result =
    Fun.protect
      ~finally:(fun () -> if not was_enabled then Obs.Span.disable ())
      (fun () ->
        Obs.Span.with_ ~name:("serve.profile." ^ Protocol.verb target) (fun () ->
            handle t target))
  in
  let events =
    List.filter
      (fun (e : Obs.Span.event) -> e.Obs.Span.id > mark)
      (Obs.Span.events ())
  in
  Ok
    (Protocol.Profile_r
       {
         target = Protocol.verb target;
         target_ok = Result.is_ok result;
         spans = List.length events;
         trace = Obs.Profile.chrome_trace events;
       })

(* Request latency histograms, one per verb, milliseconds.  Edges
   span sub-ms status hits through multi-second corner sweeps; counts
   are deterministic only in aggregate shape, not placement (wall
   time), so like every histogram they stay out of golden output. *)
let latency_edges =
  [| 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0;
     500.0; 1000.0; 2500.0; 5000.0; 10000.0 |]

let observe_latency verb ms =
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~edges:latency_edges ("serve.latency." ^ verb))
    ms

let handle_line t line =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  bump t "serve.requests";
  let t0 = Unix.gettimeofday () in
  let finish verb response =
    observe_latency verb ((Unix.gettimeofday () -. t0) *. 1e3);
    response
  in
  match Protocol.parse_request line with
  | Error e ->
      bump t "serve.errors";
      finish "invalid" { Protocol.id = seq; verb = None; reply = Error e }
  | Ok (explicit_id, request) ->
      let id = Option.value explicit_id ~default:seq in
      let verb = Protocol.verb request in
      bump t ("serve.verb." ^ verb);
      let reply =
        match
          Obs.Span.with_ ~name:("serve." ^ verb) (fun () -> handle t request)
        with
        | reply -> reply
        | exception Failure msg -> Error msg
        | exception Invalid_argument msg -> Error msg
      in
      (match reply with Error _ -> bump t "serve.errors" | Ok _ -> ());
      finish verb { Protocol.id; verb = Some verb; reply }

(* ---- the classic one-shot report -------------------------------- *)

(* Criticality-reordering summary: Kendall tau between the SSTA
   criticality ranking and a deterministic slack ranking (more
   negative slack = more critical, hence the sign flip); the distance
   form (1 - tau) / 2 is 0 for identical rankings, 1 for reversed. *)
let reorder_tau endpoints ~slack_of =
  let crit = Array.of_list (List.map (fun (_, c) -> c) endpoints) in
  let other =
    Array.of_list (List.map (fun (net, _) -> -.slack_of net) endpoints)
  in
  Stats.Correlation.kendall crit other

let slack_of_view (view : Sta.Timing.t) net =
  match
    List.find_opt
      (fun (p : Sta.Timing.path) -> p.Sta.Timing.endpoint = net)
      view.Sta.Timing.paths
  with
  | Some p -> p.Sta.Timing.slack
  | None -> 0.0

let print_ssta ppf t ~spread =
  let v = ssta_view t in
  let s = v.Flow.ssta in
  let var = v.Flow.variation in
  Format.fprintf ppf "@.-- statistical timing (SSTA) --@.";
  Format.fprintf ppf "%a@." Sta.Ssta.pp_fit v.Flow.fit;
  Format.fprintf ppf
    "variation: dL=%+.2fnm sigma_g=%.2fnm sigma_l=%.2fnm (window fit + %.1fnm \
     silicon noise)@."
    var.Sta.Ssta.mean_shift var.Sta.Ssta.sigma_global var.Sta.Ssta.sigma_local
    t.run.Flow.config.Flow.cd_noise_gate;
  Format.fprintf ppf "ssta    : %a@." Sta.Ssta.pp_summary s;
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Sta.Ssta.pp_endpoint e)
    s.Sta.Ssta.endpoints;
  let pairs =
    List.map
      (fun (e : Sta.Ssta.endpoint) -> (e.Sta.Ssta.net, e.Sta.Ssta.criticality))
      s.Sta.Ssta.endpoints
  in
  if List.length pairs >= 2 then begin
    let slow =
      List.find_map
        (fun ((c : Sta.Corners.corner), view) ->
          if String.equal c.Sta.Corners.name "slow" then Some view else None)
        (Flow.corner_views t.run ~spread)
    in
    let tau_drawn =
      reorder_tau pairs ~slack_of:(slack_of_view t.run.Flow.drawn_sta)
    in
    let dist tau = (1.0 -. tau) /. 2.0 in
    (match slow with
    | Some slow_view ->
        let tau_slow = reorder_tau pairs ~slack_of:(slack_of_view slow_view) in
        Format.fprintf ppf
          "reorder : crit vs drawn tau=%+.3f (dist %.3f), vs slow corner \
           tau=%+.3f (dist %.3f)@."
          tau_drawn (dist tau_drawn) tau_slow (dist tau_slow)
    | None ->
        Format.fprintf ppf "reorder : crit vs drawn tau=%+.3f (dist %.3f)@."
          tau_drawn (dist tau_drawn))
  end

let print_report ppf t ~spread ~report ~selective ~ssta =
  let open Timing_opc in
  let r = t.run in
  Format.fprintf ppf "%a@." Layout.Chip.pp r.Flow.chip;
  Format.fprintf ppf "%a@." Opc.Model_opc.pp_stats r.Flow.opc_stats;
  let printed =
    List.filter (fun c -> c.Cdex.Gate_cd.printed) r.Flow.cds
  in
  Format.fprintf ppf "gate dCD: %a@." Stats.Summary.pp
    (Stats.Summary.of_list (List.map Cdex.Gate_cd.delta_cd printed));
  Format.fprintf ppf "drawn   : %a@." Sta.Timing.pp_summary r.Flow.drawn_sta;
  Format.fprintf ppf "post-OPC: %a@." Sta.Timing.pp_summary r.Flow.post_opc_sta;
  Format.fprintf ppf "delta   : %a@." Compare.pp_slack_delta
    (Compare.slack_delta r.Flow.drawn_sta r.Flow.post_opc_sta);
  Format.fprintf ppf "reorder : %a@." Compare.pp_reorder
    (Compare.path_reorder r.Flow.drawn_sta r.Flow.post_opc_sta);
  List.iter
    (fun ((c : Sta.Corners.corner), view) ->
      Format.fprintf ppf "corner %-18s: %a@."
        (Format.asprintf "%a" Sta.Corners.pp c)
        Sta.Timing.pp_summary view)
    (Flow.corner_views r ~spread);
  Format.fprintf ppf "leakage : drawn %.4f uA -> annotated %.4f uA@."
    (Flow.leakage r ~annotated:false)
    (Flow.leakage r ~annotated:true);
  if report > 0 then begin
    Format.fprintf ppf "@.-- post-OPC timing paths --@.";
    Sta.Path_report.write ppf r.Flow.netlist r.Flow.post_opc_sta ~top:report
  end;
  if selective then begin
    let margin = 5.0 in
    let selected =
      Flow.critical_gates r ~view:r.Flow.post_opc_sta ~margin
    in
    Format.fprintf ppf
      "@.-- selective OPC: %d critical gate sites (margin %.1f ps) --@."
      (List.length selected) margin;
    let rs = Flow.run_selective r ~selected in
    Format.fprintf ppf "%a@." Opc.Model_opc.pp_stats rs.Flow.opc_stats;
    Format.fprintf ppf "selective post-OPC: %a@." Sta.Timing.pp_summary
      rs.Flow.post_opc_sta;
    Format.fprintf ppf "selective delta   : %a@." Compare.pp_slack_delta
      (Compare.slack_delta r.Flow.post_opc_sta rs.Flow.post_opc_sta)
  end;
  if ssta then print_ssta ppf t ~spread
