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
    P.Metrics;
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
        { counters = [ ("serve.requests", 5); ("serve.verb.cds", 1) ] } );
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

(* A field the verb does not read: a misspelt one would otherwise fall
   back to its default (the overall worst path, no corner views). *)
let unknown_fields =
  [
    ( {|{"verb":"retime","endpiont":9}|},
      {|unknown field "endpiont" for verb "retime"|} );
    ( {|{"verb":"corner","dose":1.03,"defocus":90,"sprad":8}|},
      {|unknown field "sprad" for verb "corner"|} );
    ({|{"verb":"metrics","all":true}|}, {|unknown field "all" for verb "metrics"|});
  ]

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
    {|{"verb":"corner","dose":1.03,"defocus":90,"spread":-5}|};
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
  @ List.map fst unknown_fields

let test_malformed_requests () =
  List.iter
    (fun line ->
      match P.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %S" line)
    malformed;
  List.iter
    (fun (line, message) ->
      match P.parse_request line with
      | Error e -> checks ("refused " ^ line) message e
      | Ok _ -> Alcotest.failf "accepted %S" line)
    unknown_fields

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

(* ---- observability ---- *)

(* The metrics verb reports this session's counters. *)
let test_metrics_counters () =
  let s = session_for 1 in
  ignore (Session.handle_line s {|{"verb":"retime"}|});
  match reply_exn s P.Metrics with
  | P.Metrics_r { counters } ->
      checkb "session counters present" true
        (List.mem_assoc "serve.requests" counters);
      checkb "retime counted" true
        (match List.assoc_opt "serve.verb.retime" counters with
        | Some n -> n >= 1
        | None -> false)
  | _ -> Alcotest.fail "not a metrics reply"

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

(* ---- report ---- *)

(* At a dose where no gate prints, the report says so and goes on to
   the timing lines, instead of failing on an empty CD summary. *)
let test_report_no_gate_printed () =
  let condition = Litho.Condition.make ~dose:0.5 ~defocus:70.0 in
  let s =
    Session.create ~bench:"c17" { (base_config ()) with F.condition }
      (Circuit.Generator.c17 ())
  in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  let sites = List.length (Session.run s).F.cds in
  let lines =
    Format.asprintf "%a"
      (fun ppf () ->
        Session.print_report ppf s ~spread:8.0 ~report:0 ~selective:false ~ssta:false)
      ()
    |> String.split_on_char '\n'
  in
  checkb "gate sites measured" true (sites > 0);
  checkb "no gate printed, counted" true
    (List.mem (Printf.sprintf "gate dCD: no gate printed (%d of %d sites)" sites sites) lines);
  checkb "report goes on to leakage" true
    (List.exists (String.starts_with ~prefix:"leakage : ") lines)

(* ---- fault tolerance ---- *)

(* A corner whose defocus is beyond the optical model's bound: the
   target raises [Invalid_argument] from [Condition.make], before any
   flow work. *)
let failing_corner = {|{"verb":"corner","dose":1.0,"defocus":1e8}|}

let defocus_error = "Condition.make: |defocus| must be at most 200 nm"

(* A corner whose spread reaches the 90 nm drawn gate length would
   leave a non-positive channel; the session refuses it up front. *)
let wide_corner = {|{"verb":"corner","dose":1.03,"defocus":90,"spread":200}|}

let spread_error = "spread 200 nm is outside [0, 90), the drawn gate length"

let test_session_survives_fault () =
  let s = session_for 1 in
  let first = Session.handle_line s failing_corner in
  (match first.P.reply with
  | Error e -> checks "failure surfaced" defocus_error e
  | Ok _ -> Alcotest.fail "a corner past the defocus bound should fail");
  let second = Session.handle_line s {|{"verb":"status"}|} in
  (match second.P.reply with
  | Ok (P.Status_r st) -> checks "session still answers" "c17" st.bench
  | _ -> Alcotest.fail "session did not survive the failing request");
  (* Requests the physics cannot answer get an error reply; none of
     them ends the session. *)
  List.iter
    (fun (line, message) ->
      (match (Session.handle_line s line).P.reply with
      | Error e when message <> "" -> checks ("refused " ^ line) message e
      | Error e -> checkb ("refused " ^ line) true (e <> "")
      | Ok _ -> Alcotest.failf "answered %s" line);
      match (Session.handle_line s {|{"verb":"status"}|}).P.reply with
      | Ok (P.Status_r st) -> checks ("answers after " ^ line) "c17" st.bench
      | _ -> Alcotest.failf "session did not survive %s" line)
    [
      ({|{"verb":"corner","dose":0,"defocus":70}|}, "");
      ({|{"verb":"profile","of":{"verb":"status"}}|}, {|unknown verb "profile"|});
      (wide_corner, spread_error);
      ({|{"verb":"whatif","gate":"g10","dl":-200}|}, "");
      ({|{"verb":"whatif","gate":"g10","dx":1000000000}|}, "");
      ({|{"verb":"whatif","gate":"g10","dx":0,"dy":-1000000000}|}, "");
    ];
  (* The spread is refused before the corner re-extracts the chip: the
     span log holds the request's span and no extraction span. *)
  Obs.Span.enable ();
  Fun.protect ~finally:Obs.Span.disable (fun () ->
      ignore (Session.handle_line s wide_corner));
  let names =
    List.map (fun (e : Obs.Span.event) -> e.Obs.Span.name) (Obs.Span.events ())
  in
  checkb "corner span recorded" true (List.mem "serve.corner" names);
  checkb "no flow.extract_at span" false (List.mem "flow.extract_at" names)

(* Each parsed request's serve.<verb> span carries the response id and
   whether the reply was ok, so a trace holds every fact of a request
   beside its wall time; an unparsable line gets no span. *)
let test_span_attributes () =
  let s = session_for 1 in
  let script_path = Filename.temp_file "potx_serve" ".jsonl" in
  let out_path = Filename.temp_file "potx_serve" ".out" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ script_path; out_path ])
  @@ fun () ->
  let oc = open_out script_path in
  List.iter
    (fun line -> output_string oc (line ^ "\n"))
    [
      {|{"verb":"status"}|};
      {|{"id":40,"verb":"retime"}|};
      "not json at all";
      {|{"verb":"whatif","gate":"g22","dl":3.0}|};
      wide_corner;
      failing_corner;
      {|{"verb":"metrics"}|};
    ];
  close_out oc;
  Obs.Span.enable ();
  Fun.protect ~finally:Obs.Span.disable (fun () ->
      let ic = open_in script_path and oc = open_out out_path in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          close_out oc)
        (fun () -> Server.serve_channels s ic oc));
  let spans =
    List.filter
      (fun (e : Obs.Span.event) ->
        String.starts_with ~prefix:"serve." e.Obs.Span.name)
      (Obs.Span.events ())
  in
  let ic = open_in out_path in
  let rec responses acc =
    match input_line ic with
    | line -> (
        match P.parse_response line with
        | Ok r -> responses (r :: acc)
        | Error e -> Alcotest.failf "response %S failed to parse: %s" line e)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  let parsed =
    List.filter (fun (r : P.response) -> r.P.verb <> None) (responses [])
  in
  checki "one span per parsed request" (List.length parsed) (List.length spans);
  checkb "refusals among them" true
    (List.exists (fun (r : P.response) -> Result.is_error r.P.reply) parsed);
  List.iter2
    (fun (r : P.response) (e : Obs.Span.event) ->
      let verb = Option.get r.P.verb in
      checks "span name" ("serve." ^ verb) e.Obs.Span.name;
      checkb
        (Printf.sprintf "%s: attrs id=%d ok=%b" verb r.P.id (Result.is_ok r.P.reply))
        true
        (e.Obs.Span.attrs
        = [ ("id", string_of_int r.P.id);
            ("ok", string_of_bool (Result.is_ok r.P.reply)) ]))
    parsed spans

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
      ( "report",
        [ Alcotest.test_case "no gate printed" `Quick test_report_no_gate_printed ] );
      ( "faults",
        [
          Alcotest.test_case "session survives injected fault" `Quick
            test_session_survives_fault;
        ] );
      (* Last: these advance the memoized sessions' request sequence
         numbers via handle_line, which the determinism section's
         cross-session id comparison must not see. *)
      ( "observability",
        [
          Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
          Alcotest.test_case "profiling preserves bytes" `Quick
            test_profiling_preserves_bytes;
          Alcotest.test_case "span attributes" `Quick test_span_attributes;
        ] );
    ]
