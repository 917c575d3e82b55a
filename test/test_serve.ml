(* The resident timing service: protocol round-trips, warm-vs-cold
   reply identity, request-order byte determinism across worker-domain
   counts, and session survival of requests that fail.

   The warm sessions here run the same reduced config as test_flow's
   identity cases (tile=1500, 2 OPC iterations, 3 slices) so a full flow warm-up is
   cheap enough to repeat per domain count. *)

module F = Timing_opc.Flow
module P = Timing_opc_serve.Protocol
module Session = Timing_opc_serve.Session
module Server = Timing_opc_serve.Server

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

let check_ps what = Alcotest.(check (float 1e-6)) what

(* The same reduced config as test_flow's identity cases, via the
   shared kit. *)
let base_config ?domains () = Identity_helpers.base_config ?domains ()

let session_for =
  let cache = Hashtbl.create 4 in
  (* Pools own spawned domains; join them before the test binary exits. *)
  at_exit (fun () -> Hashtbl.iter (fun _ s -> Session.close s) cache);
  fun domains ->
    match Hashtbl.find_opt cache domains with
    | Some s -> s
    | None ->
        let s =
          Session.create ~bench:"c17" (base_config ~domains ())
            (Circuit.Generator.c17 ())
        in
        Hashtbl.add cache domains s;
        s

(* ---- protocol ---- *)

let all_requests =
  [
    P.Status;
    P.Retime { endpoint = None };
    P.Retime { endpoint = Some 9 };
    P.Whatif { gate = "g22"; change = P.Resize { dl = 3.5 } };
    P.Whatif { gate = "g22"; change = P.Move { dx = 400; dy = -200 } };
    P.Cds { region = None };
    P.Cds { region = Some (Geometry.Rect.make ~lx:0 ~ly:0 ~hx:3000 ~hy:3000) };
    P.Corner { dose = 1.03; defocus = 90.0; spread = None };
    P.Corner { dose = 0.97; defocus = 30.0; spread = Some 8.0 };
    P.Ssta { top = None };
    P.Ssta { top = Some 3 };
    P.Metrics { all = false };
    P.Metrics { all = true };
    P.Profile { target = P.Status };
    P.Profile { target = P.Retime { endpoint = Some 9 } };
    P.Profile
      { target = P.Whatif { gate = "g22"; change = P.Resize { dl = 3.5 } } };
    P.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match P.parse_request (P.request_to_string ~id:7 r) with
      | Ok (Some 7, r') ->
          checkb ("roundtrip " ^ P.verb r) true (r = r')
      | Ok _ -> Alcotest.failf "lost id on %s" (P.verb r)
      | Error e -> Alcotest.failf "%s failed to reparse: %s" (P.verb r) e)
    all_requests;
  (* Without an id the parse must report None (server assigns one). *)
  (match P.parse_request (P.request_to_string P.Status) with
  | Ok (None, P.Status) -> ()
  | _ -> Alcotest.fail "id-less status");
  ()

let sample_path =
  { P.endpoint = 9; arrival = 38.25; slack = 2.5; gates = [ "g11"; "g22" ] }

let all_replies =
  [
    ( "status",
      P.Status_r
        {
          bench = "c17";
          gates = 6;
          nets = 11;
          clock_period = 40.625;
          drawn_wns = 1.875;
          wns = 2.25;
          tns = 0.0;
          cds = 24;
        } );
    ("retime", P.Retime_r { path = sample_path; reevaluated = 0 });
    ( "whatif",
      P.Whatif_r
        {
          gate = "g22";
          wns_before = 2.25;
          wns_after = 1.75;
          worst = sample_path;
          reevaluated = 3;
          remeasured = 8;
        } );
    ( "cds",
      P.Cds_r
        [
          { P.gate = "g10/MN0"; cd = 88.5; delta = -1.5; printed = true };
          { P.gate = "g10/MP0"; cd = 90.0; delta = 0.0; printed = false };
        ] );
    ( "corner",
      P.Corner_r
        {
          dose = 1.03;
          defocus = 90.0;
          wns = 1.625;
          tns = -0.5;
          corners = [ ("fast", 6.25); ("nominal", 1.875); ("slow", -2.375) ];
        } );
    ( "ssta",
      (* Floats chosen to survive the %.6g wire encoding, as above. *)
      P.Ssta_r
        {
          clock_period = 40.625;
          wns_mean = 2.125;
          wns_sigma = 1.25;
          fail_probability = 0.03125;
          shift = -0.5;
          global_sigma = 2.5;
          local_sigma = 1.5;
          conditions = 9;
          endpoints =
            [
              {
                P.net = 9;
                slack_mean = 2.25;
                slack_sigma = 1.125;
                criticality = 0.75;
              };
              {
                P.net = 10;
                slack_mean = 2.5;
                slack_sigma = 1.0;
                criticality = 0.25;
              };
            ];
        } );
    ( "metrics",
      P.Metrics_r
        {
          counters = [ ("serve.requests", 5); ("serve.verb.cds", 1) ];
          registry = None;
        } );
    ( "metrics",
      (* all:true shape — counters plus a full registry dump; float
         values here are chosen to survive the %.6g wire encoding so
         the round-trip compares structurally equal. *)
      P.Metrics_r
        {
          counters = [ ("serve.requests", 5) ];
          registry =
            Some
              [
                ("flow.runs", Obs.Metrics.Counter 3);
                ("opc.wall_s", Obs.Metrics.Gauge 1.5);
                ( "serve.latency.retime",
                  Obs.Metrics.Histogram
                    {
                      Obs.Metrics.edges = [| 0.5; 1.0; 2.0 |];
                      counts = [| 2; 1; 0; 1 |];
                      count = 4;
                      sum = 4.25;
                    } );
              ];
        } );
    ( "profile",
      P.Profile_r
        {
          target = "retime";
          target_ok = true;
          spans = 2;
          trace =
            Obs.Json.Obj
              [
                ( "traceEvents",
                  Obs.Json.Arr
                    [
                      Obs.Json.Obj
                        [
                          ("name", Obs.Json.Str "serve.profile.retime");
                          ("ph", Obs.Json.Str "X");
                          ("ts", Obs.Json.Num 0.0);
                          ("dur", Obs.Json.Num 1250.0);
                          ("pid", Obs.Json.Num 1.0);
                          ("tid", Obs.Json.Num 0.0);
                        ];
                    ] );
                ("displayTimeUnit", Obs.Json.Str "ms");
              ];
        } );
    ("shutdown", P.Shutdown_r);
  ]

let test_response_roundtrip () =
  List.iter
    (fun (verb, reply) ->
      let r = { P.id = 3; verb = Some verb; reply = Ok reply } in
      match P.parse_response (P.response_to_string r) with
      | Ok r' -> checkb ("roundtrip " ^ verb) true (r = r')
      | Error e -> Alcotest.failf "%s reply failed to reparse: %s" verb e)
    all_replies;
  let err = { P.id = 4; verb = None; reply = Error "bad JSON: oops" } in
  (match P.parse_response (P.response_to_string err) with
  | Ok r' -> checkb "error roundtrip" true (err = r')
  | Error e -> Alcotest.failf "error reply failed to reparse: %s" e);
  ()

let malformed =
  [
    "";
    "{";
    "[1,2]";
    "42";
    {|{"gate":"g10"}|};
    {|{"verb":"zap"}|};
    {|{"verb":7}|};
    {|{"id":3.5,"verb":"status"}|};
    {|{"verb":"whatif","gate":"g10"}|};
    {|{"verb":"whatif","gate":"g10","dl":1,"dx":2}|};
    {|{"verb":"whatif","dl":1}|};
    {|{"verb":"cds","lx":1}|};
    {|{"verb":"cds","lx":1,"ly":2,"hx":3}|};
    {|{"verb":"corner","dose":1.0}|};
    {|{"verb":"corner","defocus":30}|};
    {|{"verb":"corner","dose":0,"defocus":70}|};
    {|{"verb":"corner","dose":-1,"defocus":70}|};
    {|{"verb":"profile","of":{"verb":"corner","dose":0,"defocus":70}}|};
    {|{"verb":"retime","endpoint":1.5}|};
    {|{"verb":"metrics","all":1}|};
    {|{"verb":"profile","of":{"verb":"profile"}}|};
    {|{"verb":"profile","of":{"verb":"shutdown"}}|};
    {|{"verb":"profile","of":{"verb":"zap"}}|};
    {|{"verb":"profile","of":"retime"}|};
    (* Integral but past 2^53: int_of_float would wrap them. *)
    {|{"verb":"whatif","gate":"g22","dx":1e30}|};
    {|{"verb":"whatif","gate":"g22","dx":-1e19}|};
    {|{"id":1e300,"verb":"status"}|};
  ]

let test_malformed_requests () =
  List.iter
    (fun line ->
      match P.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %S" line)
    malformed

(* ---- warm vs cold identity ---- *)

let reply_exn s request =
  match Session.handle s request with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "%s failed: %s" (P.verb request) e

let test_status_matches_run () =
  let s = session_for 1 in
  let r = Session.run s in
  match reply_exn s P.Status with
  | P.Status_r st ->
      checks "bench" "c17" st.bench;
      checki "gates" (Circuit.Netlist.num_gates r.F.netlist) st.gates;
      checki "cds" (List.length r.F.cds) st.cds;
      check_ps "wns" r.F.post_opc_sta.Sta.Timing.wns st.wns
  | _ -> Alcotest.fail "not a status reply"

(* retime must reproduce the warm view: an empty change set through
   Sta.Incremental re-evaluates nothing and returns the same paths a
   cold full analyze would. *)
let test_retime_matches_cold () =
  let s = session_for 1 in
  let r = Session.run s in
  let cold = F.time_with r ~lengths_of:(F.lengths_of r) in
  (match reply_exn s (P.Retime { endpoint = None }) with
  | P.Retime_r { path; reevaluated } ->
      checki "nothing re-evaluated" 0 reevaluated;
      let worst = List.hd cold.Sta.Timing.paths in
      checki "endpoint" worst.Sta.Timing.endpoint path.P.endpoint;
      check_ps "arrival" worst.Sta.Timing.arrival path.P.arrival;
      check_ps "slack" worst.Sta.Timing.slack path.P.slack;
      checkb "gates" true (worst.Sta.Timing.gates = path.P.gates)
  | _ -> Alcotest.fail "not a retime reply");
  (* Per-endpoint retime agrees with the cold path list too. *)
  List.iter
    (fun (p : Sta.Timing.path) ->
      match reply_exn s (P.Retime { endpoint = Some p.Sta.Timing.endpoint }) with
      | P.Retime_r { path; _ } ->
          check_ps "endpoint arrival" p.Sta.Timing.arrival path.P.arrival
      | _ -> Alcotest.fail "not a retime reply")
    cold.Sta.Timing.paths

(* Every resize what-if equals the cold batch computation: a full
   Timing.analyze under the biased lengths view. *)
let test_resize_matches_cold () =
  let s = session_for 1 in
  let r = Session.run s in
  let lengths = F.lengths_of r in
  let drawn = Circuit.Delay_model.drawn_lengths r.F.config.F.tech in
  let cold_wns gate dl =
    let lengths_of name =
      if String.equal name gate then
        let base = Option.value (lengths name) ~default:drawn in
        Some
          {
            Circuit.Delay_model.l_n = base.Circuit.Delay_model.l_n +. dl;
            l_p = base.Circuit.Delay_model.l_p +. dl;
          }
      else lengths name
    in
    (F.time_with r ~lengths_of).Sta.Timing.wns
  in
  let gates =
    Array.to_list r.F.netlist.Circuit.Netlist.gates
    |> List.map (fun (g : Circuit.Netlist.gate) -> g.Circuit.Netlist.gname)
  in
  let count = ref 0 in
  List.iter
    (fun gate ->
      List.iter
        (fun dl ->
          incr count;
          match
            reply_exn s (P.Whatif { gate; change = P.Resize { dl } })
          with
          | P.Whatif_r w ->
              check_ps
                (Printf.sprintf "wns(%s%+.1f)" gate dl)
                (cold_wns gate dl) w.wns_after;
              checkb "re-evaluated at least the gate" true (w.reevaluated >= 1);
              checki "resize re-measures nothing" 0 w.remeasured
          | _ -> Alcotest.fail "not a whatif reply")
        [ -4.0; -1.0; 2.0; 5.0 ])
    gates;
  checkb "swept the whole netlist" true (!count >= 20)

(* A null move (dx = dy = 0) rebuilds an identical chip, so OPC,
   extraction and timing must all land exactly on the warm state. *)
let test_null_move_is_identity () =
  let s = session_for 1 in
  let r = Session.run s in
  match reply_exn s (P.Whatif { gate = "g22"; change = P.Move { dx = 0; dy = 0 } })
  with
  | P.Whatif_r w ->
      checki "no gate re-timed" 0 w.reevaluated;
      check_ps "wns unchanged" r.F.post_opc_sta.Sta.Timing.wns w.wns_after;
      checkb "some sites re-measured" true (w.remeasured > 0)
  | _ -> Alcotest.fail "not a whatif reply"

(* A real move's reply equals a recompute on the moved chip, made of
   public steps only: model OPC of the whole moved chip, extraction of
   every gate against that mask, and a full STA under the resulting
   annotation.  The reply re-OPCs only the tiles the move reaches,
   re-measures only the gates near it and re-times incrementally. *)
let move_matches_recompute domains () =
  let s = session_for domains in
  let r = Session.run s in
  let config = r.F.config in
  List.iter
    (fun (gate, dx, dy) ->
      let what = Printf.sprintf "domains %d: %s (%+d, %+d)" domains gate dx dy in
      let chip = Layout.Chip.move r.F.chip ~inst:gate ~dx ~dy in
      let mask, _ =
        Opc.Chip_opc.correct (F.litho_model config)
          (Opc.Chip_opc.Model config.F.opc_config) chip ~tile:config.F.tile
      in
      let cds = F.extract_at ~chip ~mask r in
      let timing =
        F.time_with r
          ~lengths_of:(F.lengths_of_annotation (F.annotate config cds) r.F.netlist)
      in
      let worst = List.hd timing.Sta.Timing.paths in
      match reply_exn s (P.Whatif { gate; change = P.Move { dx; dy } }) with
      | P.Whatif_r w ->
          let exact = Alcotest.(check (float 0.0)) in
          exact (what ^ ": wns") timing.Sta.Timing.wns w.wns_after;
          checki (what ^ ": worst endpoint") worst.Sta.Timing.endpoint
            w.worst.P.endpoint;
          exact (what ^ ": worst arrival") worst.Sta.Timing.arrival
            w.worst.P.arrival;
          exact (what ^ ": worst slack") worst.Sta.Timing.slack w.worst.P.slack;
          checkb (what ^ ": worst gates") true
            (worst.Sta.Timing.gates = w.worst.P.gates)
      | _ -> Alcotest.fail "not a whatif reply")
    [ ("g10", 400, 0); ("g16", -400, 0); ("g19", 0, 300); ("g22", 1500, 0) ]

(* The corner verb re-measures at the requested condition against the
   warm mask; a cold run whose config carries that condition as its
   silicon must produce the same records and the same timing.  Each
   aerial engine is checked against a cold run on that engine. *)
let corner_matches_cold_run engine s =
  let r = Session.run s in
  let condition = Litho.Condition.make ~dose:1.05 ~defocus:110.0 in
  let cold =
    F.run { (base_config ()) with F.condition; engine } (Circuit.Generator.c17 ())
  in
  let what = Litho.Aerial.engine_to_string engine ^ ": " in
  (match reply_exn s (P.Corner { dose = 1.05; defocus = 110.0; spread = None })
   with
  | P.Corner_r c ->
      check_ps (what ^ "corner wns") cold.F.post_opc_sta.Sta.Timing.wns c.wns;
      check_ps (what ^ "corner tns") cold.F.post_opc_sta.Sta.Timing.tns c.tns;
      checkb (what ^ "no classic corners unless asked") true (c.corners = [])
  | _ -> Alcotest.fail "not a corner reply");
  (* The re-measured records themselves are bit-identical to the cold
     run's (same mask, same gates, same position-independent noise). *)
  let warm = F.extract_at ~condition r in
  checkb (what ^ "records bit-identical to cold run") true (warm = cold.F.cds)

let test_corner_matches_cold_run () =
  corner_matches_cold_run Litho.Aerial.Direct (session_for 1);
  let fft =
    Session.create ~bench:"c17"
      { (base_config ()) with F.engine = Litho.Aerial.Fft }
      (Circuit.Generator.c17 ())
  in
  Fun.protect
    ~finally:(fun () -> Session.close fft)
    (fun () -> corner_matches_cold_run Litho.Aerial.Fft fft)

let test_ssta_matches_cold () =
  let s = session_for 1 in
  let r = Session.run s in
  let cold = F.ssta r in
  (match reply_exn s (P.Ssta { top = None }) with
  | P.Ssta_r v ->
      check_ps "wns mean" (Sta.Ssta.wns_mean cold.F.ssta) v.wns_mean;
      check_ps "wns sigma" (Sta.Ssta.wns_sigma cold.F.ssta) v.wns_sigma;
      check_ps "shift" cold.F.variation.Sta.Ssta.mean_shift v.shift;
      check_ps "local sigma includes noise floor"
        cold.F.variation.Sta.Ssta.sigma_local v.local_sigma;
      checki "conditions" cold.F.fit.Sta.Ssta.conditions v.conditions;
      checki "every endpoint reported"
        (List.length cold.F.ssta.Sta.Ssta.endpoints)
        (List.length v.endpoints);
      List.iter2
        (fun (a : Sta.Ssta.endpoint) (b : P.ssta_endpoint) ->
          checki "endpoint order" a.Sta.Ssta.net b.P.net;
          check_ps "slack mean" a.Sta.Ssta.slack_mean b.P.slack_mean;
          check_ps "criticality" a.Sta.Ssta.criticality b.P.criticality)
        cold.F.ssta.Sta.Ssta.endpoints v.endpoints
  | _ -> Alcotest.fail "not an ssta reply");
  (* top caps the list; the memoised second answer is byte-identical. *)
  (match reply_exn s (P.Ssta { top = Some 1 }) with
  | P.Ssta_r v -> checki "top caps endpoints" 1 (List.length v.endpoints)
  | _ -> Alcotest.fail "not an ssta reply");
  let line r = P.response_to_string { P.id = 1; verb = Some "ssta"; reply = Ok r } in
  checks "warm replay is byte-identical"
    (line (reply_exn s (P.Ssta { top = None })))
    (line (reply_exn s (P.Ssta { top = None })))

let test_cds_matches_records () =
  let s = session_for 1 in
  let r = Session.run s in
  (match reply_exn s (P.Cds { region = None }) with
  | P.Cds_r records ->
      checki "every site reported" (List.length r.F.cds) (List.length records)
  | _ -> Alcotest.fail "not a cds reply");
  let region = Geometry.Rect.make ~lx:0 ~ly:0 ~hx:3000 ~hy:3000 in
  match reply_exn s (P.Cds { region = Some region }) with
  | P.Cds_r records ->
      let expect =
        List.filter
          (fun (c : Cdex.Gate_cd.t) ->
            Cdex.Extract.in_region ~region c.Cdex.Gate_cd.gate)
          r.F.cds
      in
      checki "region filter" (List.length expect) (List.length records);
      checkb "region is a strict subset" true
        (List.length records < List.length r.F.cds)
  | _ -> Alcotest.fail "not a cds reply"

(* ---- observability verbs ---- *)

(* Plain metrics: session counters only, no registry.  all:true: the
   full global registry rides along, including the per-verb latency
   histograms, and the wire form carries the derived quantiles. *)
let test_metrics_all () =
  let s = session_for 1 in
  (* Ensure at least one retime has been latency-observed. *)
  ignore (Session.handle_line s {|{"verb":"retime"}|});
  (match reply_exn s (P.Metrics { all = false }) with
  | P.Metrics_r { registry = None; counters } ->
      checkb "session counters present" true
        (List.mem_assoc "serve.requests" counters)
  | _ -> Alcotest.fail "plain metrics must not carry the registry");
  let response = Session.handle_line s {|{"verb":"metrics","all":true}|} in
  (match response.P.reply with
  | Ok (P.Metrics_r { registry = Some metrics; _ }) ->
      checkb "latency histogram in registry" true
        (match List.assoc_opt "serve.latency.retime" metrics with
        | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.count > 0
        | _ -> false)
  | _ -> Alcotest.fail "metrics all:true must carry the registry");
  let line = P.response_to_string response in
  checkb "wire form has quantiles" true
    (let contains hay needle =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains line "\"quantiles\"" && contains line "\"p95\"");
  (* And the whole reply round-trips through the client parser. *)
  match P.parse_response line with
  | Ok r' -> checks "round-trip" line (P.response_to_string r')
  | Error e -> Alcotest.failf "metrics all reply failed to reparse: %s" e

let test_profile_verb () =
  let s = session_for 1 in
  checkb "tracing off before" true (not (Obs.Span.enabled ()));
  let response =
    Session.handle_line s {|{"verb":"profile","of":{"verb":"retime"}}|}
  in
  checkb "tracing off after" true (not (Obs.Span.enabled ()));
  match response.P.reply with
  | Ok (P.Profile_r { target; target_ok; spans; trace }) ->
      checks "target" "retime" target;
      checkb "target ok" true target_ok;
      checkb "recorded spans" true (spans >= 1);
      (* The trace is a valid Chrome-trace object whose event count
         matches the reported span count, and the wire line reparses. *)
      (match Obs.Json.member "traceEvents" trace with
      | Some (Obs.Json.Arr events) ->
          checki "trace events = spans" spans (List.length events);
          List.iter
            (fun e ->
              checkb "event has ts/dur/name" true
                (Obs.Json.member "ts" e <> None
                && Obs.Json.member "dur" e <> None
                && Obs.Json.member "name" e <> None))
            events
      | _ -> Alcotest.fail "trace has no traceEvents array");
      (match P.parse_response (P.response_to_string response) with
      | Ok r' ->
          checks "profile reply round-trips" (P.response_to_string response)
            (P.response_to_string r')
      | Error e -> Alcotest.failf "profile reply failed to reparse: %s" e)
  | _ -> Alcotest.fail "not a profile reply"

(* Profiling must not change a single response byte: the same query
   answered with tracing off and on (ids pinned — the session's
   sequence number advances) is byte-identical. *)
let test_profiling_preserves_bytes () =
  let s = session_for 1 in
  let pin line =
    let r = Session.handle_line s line in
    P.response_to_string { r with P.id = 0 }
  in
  let lines =
    [
      {|{"verb":"status"}|};
      {|{"verb":"retime"}|};
      {|{"verb":"whatif","gate":"g22","dl":3.0}|};
      {|{"verb":"cds","lx":0,"ly":0,"hx":3000,"hy":3000}|};
      {|{"verb":"corner","dose":1.03,"defocus":90}|};
    ]
  in
  let off = List.map pin lines in
  Obs.Span.enable ();
  let on =
    Fun.protect ~finally:Obs.Span.disable (fun () -> List.map pin lines)
  in
  List.iteri
    (fun i (a, b) ->
      checks (Printf.sprintf "line %d bytes identical under tracing" i) a b)
    (List.combine off on)

(* The slow-query log: threshold 0 logs one structured line per
   request on the sink (never the response channel); an unreachable
   threshold logs nothing. *)
let test_slowlog () =
  let s = session_for 1 in
  let script_path = Filename.temp_file "potx_slowlog" ".jsonl" in
  let out_path = Filename.temp_file "potx_slowlog" ".out" in
  let sink_path = Filename.temp_file "potx_slowlog" ".log" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ script_path; out_path; sink_path ])
  @@ fun () ->
  let write path lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  write script_path [ {|{"verb":"status"}|}; "garbage"; {|{"verb":"retime"}|} ];
  let run threshold =
    write sink_path [];
    let ic = open_in script_path in
    let oc = open_out out_path in
    let sink = open_out sink_path in
    let stopped =
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          close_out oc;
          close_out sink)
        (fun () -> Server.serve_channels ~slowlog:(threshold, sink) s ic oc)
    in
    checkb "ended on EOF" false stopped;
    read_lines sink_path
  in
  let logged = run 0.0 in
  checki "one slowquery line per request" 3 (List.length logged);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok j ->
          checkb "slowquery shape" true
            (Obs.Json.member "type" j = Some (Obs.Json.Str "slowquery")
            && Obs.Json.member "wall_ms" j <> None
            && Obs.Json.member "ok" j <> None)
      | Error e -> Alcotest.failf "slowlog line is not JSON: %s" e)
    logged;
  checki "unreachable threshold logs nothing" 0 (List.length (run 1e9));
  (* The response channel carries only response lines. *)
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok j -> checkb "response line" true (Obs.Json.member "ok" j <> None)
      | Error e -> Alcotest.failf "response line is not JSON: %s" e)
    (read_lines out_path)

(* ---- request-order byte determinism ---- *)

let script =
  [
    {|{"verb":"status"}|};
    {|{"verb":"retime"}|};
    {|{"verb":"whatif","gate":"g22","dl":3.0}|};
    {|{"verb":"whatif","gate":"g11","dx":400,"dy":0}|};
    {|{"verb":"cds","lx":0,"ly":0,"hx":3000,"hy":3000}|};
    {|{"verb":"corner","dose":1.03,"defocus":90,"spread":8}|};
    "not json at all";
    {|{"verb":"metrics"}|};
  ]

let run_script s =
  List.map (fun line -> P.response_to_string (Session.handle_line s line)) script

let test_script_determinism () =
  let d1 = run_script (session_for 1) in
  let d2 = run_script (session_for 2) in
  let d4 = run_script (session_for 4) in
  List.iteri
    (fun i (a, b) -> checks (Printf.sprintf "line %d: domains 1 = 2" i) a b)
    (List.combine d1 d2);
  List.iteri
    (fun i (a, b) -> checks (Printf.sprintf "line %d: domains 1 = 4" i) a b)
    (List.combine d1 d4)

(* qcheck: any ad-hoc mix of read-only queries leaves the session's
   replies equal across worker-domain counts — queries are stateless
   against the warm base, so history cannot leak into replies. *)
let query_gen =
  QCheck2.Gen.(
    oneof
      [
        return {|{"verb":"retime"}|};
        map (fun e -> Printf.sprintf {|{"verb":"retime","endpoint":%d}|} e)
          (int_range 0 12);
        map2
          (fun g dl ->
            Printf.sprintf {|{"verb":"whatif","gate":"g%d","dl":%d}|} g dl)
          (int_range 10 23) (int_range (-5) 5);
        map
          (fun hx ->
            Printf.sprintf {|{"verb":"cds","lx":0,"ly":0,"hx":%d,"hy":9000}|}
              (hx * 500))
          (int_range 0 12);
        return {|{"verb":"status"}|};
      ])

let test_random_queries_deterministic =
  QCheck2.Test.make ~name:"random query scripts: domains 1 = domains 2"
    ~count:20
    QCheck2.Gen.(list_size (int_range 1 6) query_gen)
    (fun lines ->
      (* ids differ (independent sessions advance their sequence
         numbers at different rates across cases), so compare with a
         pinned id. *)
      let pin line s =
        let r = Session.handle_line s line in
        P.response_to_string { r with P.id = 0 }
      in
      List.for_all
        (fun line ->
          String.equal (pin line (session_for 1)) (pin line (session_for 2)))
        lines)

(* ---- fault tolerance ---- *)

(* A corner whose spread reaches the 90 nm drawn gate length leaves a
   non-positive channel: the target raises [Invalid_argument] from the
   device model. *)
let failing_corner = {|{"verb":"corner","dose":1.03,"defocus":90,"spread":200}|}

let test_session_survives_fault () =
  let s = session_for 1 in
  let first = Session.handle_line s failing_corner in
  (match first.P.reply with
  | Error e -> checks "failure surfaced" "Mosfet.ion: non-positive geometry" e
  | Ok _ -> Alcotest.fail "a corner past the gate length should fail");
  let second = Session.handle_line s {|{"verb":"status"}|} in
  (match second.P.reply with
  | Ok (P.Status_r st) -> checks "session still answers" "c17" st.bench
  | _ -> Alcotest.fail "session did not survive the failing request");
  (* Requests the physics cannot answer get an error reply; none of
     them ends the session. *)
  List.iter
    (fun line ->
      (match (Session.handle_line s line).P.reply with
      | Error e -> checkb ("refused " ^ line) true (e <> "")
      | Ok _ -> Alcotest.failf "answered %s" line);
      match (Session.handle_line s {|{"verb":"status"}|}).P.reply with
      | Ok (P.Status_r st) -> checks ("answers after " ^ line) "c17" st.bench
      | _ -> Alcotest.failf "session did not survive %s" line)
    [
      {|{"verb":"corner","dose":0,"defocus":70}|};
      {|{"verb":"profile","of":{"verb":"corner","dose":0,"defocus":70}}|};
      {|{"verb":"whatif","gate":"g10","dl":-200}|};
      {|{"verb":"whatif","gate":"g10","dx":1000000000}|};
      {|{"verb":"whatif","gate":"g10","dx":0,"dy":-1000000000}|};
    ]

(* A profiled request whose target raises still turns span tracing
   back off, so the failure leaves no tracing on for later requests. *)
let test_failed_profile_restores_tracing () =
  let s = session_for 1 in
  let r =
    Session.handle_line s
      (Printf.sprintf {|{"verb":"profile","of":%s}|} failing_corner)
  in
  (match r.P.reply with
  | Error e -> checks "failure surfaced" "Mosfet.ion: non-positive geometry" e
  | Ok _ -> Alcotest.fail "the failing target should fail the profiled request");
  checkb "tracing off again" false (Obs.Span.enabled ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "malformed requests" `Quick
            test_malformed_requests;
        ] );
      ( "warm-vs-cold",
        [
          Alcotest.test_case "status matches run" `Quick
            test_status_matches_run;
          Alcotest.test_case "retime matches cold" `Quick
            test_retime_matches_cold;
          Alcotest.test_case "resize matches cold" `Quick
            test_resize_matches_cold;
          Alcotest.test_case "null move is identity" `Quick
            test_null_move_is_identity;
          Alcotest.test_case "move matches recompute, domains 1" `Quick
            (move_matches_recompute 1);
          Alcotest.test_case "move matches recompute, domains 2" `Quick
            (move_matches_recompute 2);
          Alcotest.test_case "corner matches cold run" `Quick
            test_corner_matches_cold_run;
          Alcotest.test_case "cds matches records" `Quick
            test_cds_matches_records;
          Alcotest.test_case "ssta matches cold" `Quick test_ssta_matches_cold;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "script bytes across domains" `Quick
            test_script_determinism;
          qt test_random_queries_deterministic;
        ] );
      ( "faults",
        [
          Alcotest.test_case "session survives injected fault" `Quick
            test_session_survives_fault;
          Alcotest.test_case "failed profile restores tracing" `Quick
            test_failed_profile_restores_tracing;
        ] );
      (* Last: these advance the memoized sessions' request sequence
         numbers via handle_line, which the determinism section's
         cross-session id comparison must not see. *)
      ( "observability",
        [
          Alcotest.test_case "metrics all:true" `Quick test_metrics_all;
          Alcotest.test_case "profile verb" `Quick test_profile_verb;
          Alcotest.test_case "profiling preserves bytes" `Quick
            test_profiling_preserves_bytes;
          Alcotest.test_case "slow-query log" `Quick test_slowlog;
        ] );
    ]
