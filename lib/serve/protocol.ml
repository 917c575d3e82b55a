module J = Obs.Json

type whatif_change = Move of { dx : int; dy : int } | Resize of { dl : float }

type request =
  | Status
  | Retime of { endpoint : Circuit.Netlist.net option }
  | Whatif of { gate : string; change : whatif_change }
  | Cds of { region : Geometry.Rect.t option }
  | Corner of { dose : float; defocus : float; spread : float option }
  | Ssta of { top : int option }
  | Metrics of { all : bool }
  | Profile of { target : request }
  | Shutdown

let verb = function
  | Status -> "status"
  | Retime _ -> "retime"
  | Whatif _ -> "whatif"
  | Cds _ -> "cds"
  | Corner _ -> "corner"
  | Ssta _ -> "ssta"
  | Metrics _ -> "metrics"
  | Profile _ -> "profile"
  | Shutdown -> "shutdown"

type path_report = {
  endpoint : Circuit.Netlist.net;
  arrival : float;
  slack : float;
  gates : string list;
}

type cd_record = { gate : string; cd : float; delta : float; printed : bool }

type ssta_endpoint = {
  net : Circuit.Netlist.net;
  slack_mean : float;
  slack_sigma : float;
  criticality : float;
}

type reply =
  | Status_r of {
      bench : string;
      gates : int;
      nets : int;
      clock_period : float;
      drawn_wns : float;
      wns : float;
      tns : float;
      cds : int;
    }
  | Retime_r of { path : path_report; reevaluated : int }
  | Whatif_r of {
      gate : string;
      wns_before : float;
      wns_after : float;
      worst : path_report;
      reevaluated : int;
      remeasured : int;
    }
  | Cds_r of cd_record list
  | Corner_r of {
      dose : float;
      defocus : float;
      wns : float;
      tns : float;
      corners : (string * float) list;
    }
  | Ssta_r of {
      clock_period : float;
      wns_mean : float;
      wns_sigma : float;
      fail_probability : float;
      shift : float;
      global_sigma : float;
      local_sigma : float;
      conditions : int;
      endpoints : ssta_endpoint list;
    }
  | Metrics_r of {
      counters : (string * int) list;
      registry : (string * Obs.Metrics.value) list option;
    }
  | Profile_r of {
      target : string;
      target_ok : bool;
      spans : int;
      trace : J.t;  (** Chrome-trace object for the profiled request *)
    }
  | Shutdown_r

type response = {
  id : int;
  verb : string option;
  reply : (reply, string) result;
}

(* ---- requests --------------------------------------------------- *)

let int_field v = J.Num (float_of_int v)

let opt_id id fields =
  match id with Some i -> ("id", int_field i) :: fields | None -> fields

let rec request_to_json ?id r =
  let fields =
    match r with
    | Status -> [ ("verb", J.Str "status") ]
    | Retime { endpoint } ->
        ("verb", J.Str "retime")
        :: (match endpoint with
           | None -> []
           | Some e -> [ ("endpoint", int_field e) ])
    | Whatif { gate; change } -> (
        [ ("verb", J.Str "whatif"); ("gate", J.Str gate) ]
        @
        match change with
        | Resize { dl } -> [ ("dl", J.Num dl) ]
        | Move { dx; dy } -> [ ("dx", int_field dx); ("dy", int_field dy) ])
    | Cds { region } -> (
        ("verb", J.Str "cds")
        ::
        (match region with
        | None -> []
        | Some r ->
            [ ("lx", int_field r.Geometry.Rect.lx);
              ("ly", int_field r.Geometry.Rect.ly);
              ("hx", int_field r.Geometry.Rect.hx);
              ("hy", int_field r.Geometry.Rect.hy) ]))
    | Corner { dose; defocus; spread } -> (
        [ ("verb", J.Str "corner"); ("dose", J.Num dose);
          ("defocus", J.Num defocus) ]
        @ match spread with None -> [] | Some s -> [ ("spread", J.Num s) ])
    | Ssta { top } ->
        ("verb", J.Str "ssta")
        :: (match top with None -> [] | Some n -> [ ("top", int_field n) ])
    | Metrics { all } ->
        ("verb", J.Str "metrics") :: (if all then [ ("all", J.Bool true) ] else [])
    | Profile { target } ->
        [ ("verb", J.Str "profile"); ("of", request_to_json target) ]
    | Shutdown -> [ ("verb", J.Str "shutdown") ]
  in
  J.Obj (opt_id id fields)

let request_to_string ?id r = J.to_string (request_to_json ?id r)

(* Field accessors returning result, so parse errors name the field. *)
let get_int name j =
  match J.member name j with
  | Some (J.Num v) when Float.is_integer v -> Ok (Some (int_of_float v))
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Ok None

let get_float name j =
  match J.member name j with
  | Some (J.Num v) -> Ok (Some v)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)
  | None -> Ok None

let get_str name j =
  match J.member name j with
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Ok None

let ( let* ) = Result.bind

let require name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let get_bool name j =
  match J.member name j with
  | Some (J.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
  | None -> Ok None

(* [nested] marks the object under a profile request's ["of"] field:
   profiling composes with every verb except profile itself (no
   recursion) and shutdown (a side effect, not a measurement). *)
let rec parse_request_obj ~nested j =
  (match j with J.Obj _ -> Ok () | _ -> Error "request must be a JSON object")
  |> fun ok ->
  let* () = ok in
  let* id = get_int "id" j in
  let* verb = get_str "verb" j in
  let* verb = require "verb" verb in
  let* request =
    match verb with
    | "status" -> Ok Status
    | "retime" ->
        let* endpoint = get_int "endpoint" j in
        Ok (Retime { endpoint })
    | "whatif" -> (
        let* gate = get_str "gate" j in
        let* gate = require "gate" gate in
        let* dl = get_float "dl" j in
        let* dx = get_int "dx" j in
        let* dy = get_int "dy" j in
        match (dl, dx, dy) with
        | Some dl, None, None -> Ok (Whatif { gate; change = Resize { dl } })
        | None, (Some _ as dx), dy | None, dx, (Some _ as dy) ->
            let dx = Option.value dx ~default:0
            and dy = Option.value dy ~default:0 in
            Ok (Whatif { gate; change = Move { dx; dy } })
        | Some _, _, _ -> Error "whatif takes either \"dl\" or \"dx\"/\"dy\", not both"
        | None, None, None -> Error "whatif needs \"dl\" (resize) or \"dx\"/\"dy\" (move)")
    | "cds" -> (
        let* lx = get_int "lx" j in
        let* ly = get_int "ly" j in
        let* hx = get_int "hx" j in
        let* hy = get_int "hy" j in
        match (lx, ly, hx, hy) with
        | None, None, None, None -> Ok (Cds { region = None })
        | Some lx, Some ly, Some hx, Some hy ->
            Ok (Cds { region = Some (Geometry.Rect.make ~lx ~ly ~hx ~hy) })
        | _ -> Error "cds region needs all of \"lx\",\"ly\",\"hx\",\"hy\" (or none)")
    | "corner" ->
        let* dose = get_float "dose" j in
        let* dose = require "dose" dose in
        let* () =
          if dose > 0.0 then Ok () else Error "field \"dose\" must be positive"
        in
        let* defocus = get_float "defocus" j in
        let* defocus = require "defocus" defocus in
        let* spread = get_float "spread" j in
        Ok (Corner { dose; defocus; spread })
    | "ssta" ->
        let* top = get_int "top" j in
        Ok (Ssta { top })
    | "metrics" ->
        let* all = get_bool "all" j in
        Ok (Metrics { all = Option.value all ~default:false })
    | "profile" ->
        if nested then Error "profile cannot wrap profile"
        else
          let* target =
            match J.member "of" j with
            | None -> Ok Status
            | Some tj ->
                let* _id, t = parse_request_obj ~nested:true tj in
                Ok t
          in
          (match target with
          | Shutdown -> Error "profile cannot wrap shutdown"
          | _ -> Ok (Profile { target }))
    | "shutdown" -> Ok Shutdown
    | v -> Error (Printf.sprintf "unknown verb %S" v)
  in
  Ok (id, request)

let parse_request line =
  let* j =
    match J.parse line with
    | Ok j -> Ok j
    | Error e -> Error ("bad JSON: " ^ e)
  in
  parse_request_obj ~nested:false j

(* ---- responses -------------------------------------------------- *)

let path_fields (p : path_report) =
  [ ("endpoint", int_field p.endpoint);
    ("arrival_ps", J.Num p.arrival);
    ("slack_ps", J.Num p.slack);
    ("gates", J.Arr (List.map (fun g -> J.Str g) p.gates)) ]

let reply_fields = function
  | Status_r s ->
      [ ("bench", J.Str s.bench);
        ("gates", int_field s.gates);
        ("nets", int_field s.nets);
        ("clock_ps", J.Num s.clock_period);
        ("drawn_wns_ps", J.Num s.drawn_wns);
        ("wns_ps", J.Num s.wns);
        ("tns_ps", J.Num s.tns);
        ("cds", int_field s.cds) ]
  | Retime_r r ->
      path_fields r.path @ [ ("reevaluated", int_field r.reevaluated) ]
  | Whatif_r w ->
      [ ("gate", J.Str w.gate);
        ("wns_before_ps", J.Num w.wns_before);
        ("wns_after_ps", J.Num w.wns_after) ]
      @ path_fields w.worst
      @ [ ("reevaluated", int_field w.reevaluated);
          ("remeasured", int_field w.remeasured) ]
  | Cds_r records ->
      [ ("count", int_field (List.length records));
        ( "records",
          J.Arr
            (List.map
               (fun r ->
                 J.Obj
                   [ ("gate", J.Str r.gate);
                     ("cd_nm", J.Num r.cd);
                     ("delta_nm", J.Num r.delta);
                     ("printed", J.Bool r.printed) ])
               records) ) ]
  | Corner_r c ->
      [ ("dose", J.Num c.dose);
        ("defocus_nm", J.Num c.defocus);
        ("wns_ps", J.Num c.wns);
        ("tns_ps", J.Num c.tns);
        ( "corners",
          J.Arr
            (List.map
               (fun (name, wns) ->
                 J.Obj [ ("name", J.Str name); ("wns_ps", J.Num wns) ])
               c.corners) ) ]
  | Ssta_r s ->
      [ ("clock_ps", J.Num s.clock_period);
        ("wns_mean_ps", J.Num s.wns_mean);
        ("wns_sigma_ps", J.Num s.wns_sigma);
        ("fail_probability", J.Num s.fail_probability);
        ("shift_nm", J.Num s.shift);
        ("global_sigma_nm", J.Num s.global_sigma);
        ("local_sigma_nm", J.Num s.local_sigma);
        ("conditions", int_field s.conditions);
        ( "endpoints",
          J.Arr
            (List.map
               (fun e ->
                 J.Obj
                   [ ("endpoint", int_field e.net);
                     ("slack_mean_ps", J.Num e.slack_mean);
                     ("slack_sigma_ps", J.Num e.slack_sigma);
                     ("criticality", J.Num e.criticality) ])
               s.endpoints) ) ]
  | Metrics_r { counters; registry } ->
      ( "counters",
        J.Arr
          (List.map
             (fun (name, v) ->
               J.Obj [ ("name", J.Str name); ("value", int_field v) ])
             counters) )
      :: (match registry with
         | None -> []
         | Some metrics ->
             (* The quantiles section is derived from the registry's
                serve.latency.* histograms at serialisation time, so
                it carries no state of its own and parsing ignores
                it. *)
             let quantiles =
               List.filter_map
                 (fun (name, v) ->
                   match v with
                   | Obs.Metrics.Histogram h
                     when String.starts_with ~prefix:"serve.latency." name ->
                       Some
                         (J.Obj
                            (("name", J.Str name)
                            :: ("count", int_field h.Obs.Metrics.count)
                            :: List.map
                                 (fun (q, v) -> (q, J.Num v))
                                 (Obs.Report.quantiles h)))
                   | _ -> None)
                 metrics
             in
             [ ( "registry",
                 J.Arr
                   (List.map
                      (fun (name, v) -> Obs.Metrics.json_of_metric name v)
                      metrics) );
               ("quantiles", J.Arr quantiles) ])
  | Profile_r p ->
      [ ("target", J.Str p.target);
        ("target_ok", J.Bool p.target_ok);
        ("spans", int_field p.spans);
        ("trace", p.trace) ]
  | Shutdown_r -> []

let response_to_json r =
  let verb = match r.verb with Some v -> [ ("verb", J.Str v) ] | None -> [] in
  match r.reply with
  | Ok reply ->
      J.Obj
        ((("id", int_field r.id) :: verb)
        @ (("ok", J.Bool true) :: reply_fields reply))
  | Error e ->
      J.Obj
        ((("id", int_field r.id) :: verb)
        @ [ ("ok", J.Bool false); ("error", J.Str e) ])

let response_to_string r = J.to_string (response_to_json r)

(* ---- response parsing (clients, round-trip tests) ---------------- *)

let req_int name j = Result.bind (get_int name j) (require name)

let req_float name j = Result.bind (get_float name j) (require name)

let req_str name j = Result.bind (get_str name j) (require name)

let parse_path j =
  let* endpoint = req_int "endpoint" j in
  let* arrival = req_float "arrival_ps" j in
  let* slack = req_float "slack_ps" j in
  let* gates =
    match J.member "gates" j with
    | Some (J.Arr items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | J.Str s -> Ok (s :: acc)
            | _ -> Error "gate names must be strings")
          items (Ok [])
    | _ -> Error "missing field \"gates\""
  in
  Ok { endpoint; arrival; slack; gates }

let parse_reply verb j =
  match verb with
  | "status" ->
      let* bench = req_str "bench" j in
      let* gates = req_int "gates" j in
      let* nets = req_int "nets" j in
      let* clock_period = req_float "clock_ps" j in
      let* drawn_wns = req_float "drawn_wns_ps" j in
      let* wns = req_float "wns_ps" j in
      let* tns = req_float "tns_ps" j in
      let* cds = req_int "cds" j in
      Ok (Status_r { bench; gates; nets; clock_period; drawn_wns; wns; tns; cds })
  | "retime" ->
      let* path = parse_path j in
      let* reevaluated = req_int "reevaluated" j in
      Ok (Retime_r { path; reevaluated })
  | "whatif" ->
      let* gate = req_str "gate" j in
      let* wns_before = req_float "wns_before_ps" j in
      let* wns_after = req_float "wns_after_ps" j in
      let* worst = parse_path j in
      let* reevaluated = req_int "reevaluated" j in
      let* remeasured = req_int "remeasured" j in
      Ok (Whatif_r { gate; wns_before; wns_after; worst; reevaluated; remeasured })
  | "cds" ->
      let* records =
        match J.member "records" j with
        | Some (J.Arr items) ->
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                let* gate = req_str "gate" item in
                let* cd = req_float "cd_nm" item in
                let* delta = req_float "delta_nm" item in
                let* printed =
                  match J.member "printed" item with
                  | Some (J.Bool b) -> Ok b
                  | _ -> Error "missing field \"printed\""
                in
                Ok ({ gate; cd; delta; printed } :: acc))
              items (Ok [])
        | _ -> Error "missing field \"records\""
      in
      Ok (Cds_r records)
  | "corner" ->
      let* dose = req_float "dose" j in
      let* defocus = req_float "defocus_nm" j in
      let* wns = req_float "wns_ps" j in
      let* tns = req_float "tns_ps" j in
      let* corners =
        match J.member "corners" j with
        | Some (J.Arr items) ->
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                let* name = req_str "name" item in
                let* wns = req_float "wns_ps" item in
                Ok ((name, wns) :: acc))
              items (Ok [])
        | _ -> Error "missing field \"corners\""
      in
      Ok (Corner_r { dose; defocus; wns; tns; corners })
  | "ssta" ->
      let* clock_period = req_float "clock_ps" j in
      let* wns_mean = req_float "wns_mean_ps" j in
      let* wns_sigma = req_float "wns_sigma_ps" j in
      let* fail_probability = req_float "fail_probability" j in
      let* shift = req_float "shift_nm" j in
      let* global_sigma = req_float "global_sigma_nm" j in
      let* local_sigma = req_float "local_sigma_nm" j in
      let* conditions = req_int "conditions" j in
      let* endpoints =
        match J.member "endpoints" j with
        | Some (J.Arr items) ->
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                let* net = req_int "endpoint" item in
                let* slack_mean = req_float "slack_mean_ps" item in
                let* slack_sigma = req_float "slack_sigma_ps" item in
                let* criticality = req_float "criticality" item in
                Ok ({ net; slack_mean; slack_sigma; criticality } :: acc))
              items (Ok [])
        | _ -> Error "missing field \"endpoints\""
      in
      Ok
        (Ssta_r
           { clock_period; wns_mean; wns_sigma; fail_probability; shift;
             global_sigma; local_sigma; conditions; endpoints })
  | "metrics" ->
      let* counters =
        match J.member "counters" j with
        | Some (J.Arr items) ->
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                let* name = req_str "name" item in
                let* v = req_int "value" item in
                Ok ((name, v) :: acc))
              items (Ok [])
        | _ -> Error "missing field \"counters\""
      in
      let* registry =
        match J.member "registry" j with
        | None -> Ok None
        | Some (J.Arr items) ->
            let* metrics =
              List.fold_right
                (fun item acc ->
                  let* acc = acc in
                  match Obs.Report.metric_of_json item with
                  | Some m -> Ok (m :: acc)
                  | None -> Error "bad registry entry")
                items (Ok [])
            in
            Ok (Some metrics)
        | Some _ -> Error "field \"registry\" must be an array"
      in
      (* "quantiles" is derived from the registry on serialisation;
         nothing to keep. *)
      Ok (Metrics_r { counters; registry })
  | "profile" ->
      let* target = req_str "target" j in
      let* target_ok =
        match J.member "target_ok" j with
        | Some (J.Bool b) -> Ok b
        | _ -> Error "missing field \"target_ok\""
      in
      let* spans = req_int "spans" j in
      let* trace = require "trace" (J.member "trace" j) in
      Ok (Profile_r { target; target_ok; spans; trace })
  | "shutdown" -> Ok Shutdown_r
  | v -> Error (Printf.sprintf "unknown verb %S in response" v)

let parse_response line =
  let* j =
    match J.parse line with
    | Ok j -> Ok j
    | Error e -> Error ("bad JSON: " ^ e)
  in
  let* id = req_int "id" j in
  let* verb = get_str "verb" j in
  match J.member "ok" j with
  | Some (J.Bool true) ->
      let* v = require "verb" verb in
      let* reply = parse_reply v j in
      Ok { id; verb; reply = Ok reply }
  | Some (J.Bool false) ->
      let* e = req_str "error" j in
      Ok { id; verb; reply = Error e }
  | _ -> Error "missing field \"ok\""
