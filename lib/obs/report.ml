(* Read side of the observability files: one JSONL reader, quantiles
   over histogram snapshots, and the two offline tools built on them,
   the schema check behind [potx obs-check] and the summary behind
   [potx obs-report]. *)

let quantile (h : Metrics.histogram_snapshot) q =
  if h.count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = q *. float_of_int h.count in
    let n_edges = Array.length h.edges in
    let rec walk i cum =
      if i >= Array.length h.counts then h.edges.(n_edges - 1)
      else begin
        let c = h.counts.(i) in
        let cum' = cum +. float_of_int c in
        if cum' >= target && c > 0 then
          if i >= n_edges then
            (* Overflow bucket is unbounded; report its lower edge —
               a lower bound, which is the honest answer here. *)
            h.edges.(n_edges - 1)
          else begin
            let lo = if i = 0 then 0.0 else h.edges.(i - 1) in
            let hi = h.edges.(i) in
            lo +. ((hi -. lo) *. ((target -. cum) /. float_of_int c))
          end
        else walk (i + 1) cum'
      end
    in
    walk 0 0.0
  end

(* Line numbers count every line, blank ones included, so a message
   names the line an editor shows. *)
let read_jsonl path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (n, line) ->
         if line = "" then None else Some (n, Json.parse line))

let json_floats j =
  match j with
  | Json.Arr xs -> Some (List.filter_map Json.to_float xs)
  | _ -> None

let metric_of_json j =
  let open Json in
  let num k = Option.bind (member k j) to_float in
  let str k = Option.bind (member k j) to_str in
  match (str "type", str "name") with
  | Some "counter", Some name -> (
      match num "value" with
      | Some v -> Some (name, Metrics.Counter (int_of_float v))
      | None -> None)
  | Some "gauge", Some name -> (
      match num "value" with
      | Some v -> Some (name, Metrics.Gauge v)
      | None -> None)
  | Some "histogram", Some name -> (
      match
        ( Option.bind (member "edges" j) json_floats,
          Option.bind (member "counts" j) json_floats,
          num "count",
          num "sum" )
      with
      | Some edges, Some counts, Some count, Some sum
        when List.length counts = List.length edges + 1 ->
          Some
            ( name,
              Metrics.Histogram
                {
                  edges = Array.of_list edges;
                  counts = Array.of_list (List.map int_of_float counts);
                  count = int_of_float count;
                  sum;
                } )
      | _ -> None)
  | _ -> None

let find name metrics = List.assoc_opt name metrics

let counter_of name metrics =
  match find name metrics with Some (Metrics.Counter n) -> Some n | _ -> None

let gauge_of name metrics =
  match find name metrics with Some (Metrics.Gauge v) -> Some v | _ -> None

let histogram_of name metrics =
  match find name metrics with
  | Some (Metrics.Histogram h) -> Some h
  | _ -> None

(* [name] without [prefix], when it starts with it. *)
let after ~prefix name =
  let n = String.length prefix in
  if String.starts_with ~prefix name then Some (String.sub name n (String.length name - n))
  else None

(* Names like exec.pool.<pool>.up_s -> the <pool> segment. *)
let pool_names metrics =
  let suffix = ".up_s" in
  List.filter_map
    (fun (name, _) ->
      match after ~prefix:"exec.pool." name with
      | Some rest when String.ends_with ~suffix rest && rest <> suffix ->
          Some (String.sub rest 0 (String.length rest - String.length suffix))
      | _ -> None)
    metrics
  |> List.sort_uniq String.compare

(* Occupancy = busy worker-seconds / (uptime * workers); None until
   the pool published up_s (at shutdown). *)
let pool_occupancy ~pool metrics =
  let g k = gauge_of (Printf.sprintf "exec.pool.%s.%s" pool k) metrics in
  match (g "busy_s", g "up_s", g "domains") with
  | Some busy, Some up, Some domains when up > 0.0 && domains > 0.0 ->
      Some (busy /. (up *. domains))
  | _ -> None

let cache_hit_rate metrics =
  match
    (counter_of "litho.cache.hits" metrics, counter_of "litho.cache.misses" metrics)
  with
  | Some h, Some m when h + m > 0 ->
      Some (float_of_int h /. float_of_int (h + m))
  | _ -> None

(* ---- obs-check: the schema ---- *)

let kind_name = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

let kind_of = function
  | Metrics.Counter _ -> `Counter
  | Metrics.Gauge _ -> `Gauge
  | Metrics.Histogram _ -> `Histogram

(* The stages [Flow.run] wraps in a span, by exact name. *)
let flow_stage_spans =
  [ "flow.litho_model"; "flow.place"; "flow.sta.drawn"; "flow.opc";
    "flow.cdex"; "flow.annotate"; "flow.sta.post_opc" ]

(* Registered when their modules load, so every dump of a flow binary
   carries them, whatever the run did: at least one per flow stage,
   plus the tile cache and the checkpoint store. *)
let required_metrics =
  [ ("flow.runs", `Counter);
    ("place.cells", `Counter);
    ("litho.simulations", `Counter);
    ("litho.cache.hits", `Counter);
    ("litho.cache.misses", `Counter);
    ("litho.cache.evictions", `Counter);
    ("litho.cache.bytes", `Gauge);
    ("opc.iterations", `Counter);
    ("opc.dirty_tiles", `Counter);
    ("opc.max_epe_nm", `Histogram);
    ("cdex.gates", `Counter);
    ("cdex.cd_nm", `Histogram);
    ("annotate.entries", `Counter);
    ("sta.analyses", `Counter);
    ("flow.checkpoint.saved", `Counter);
    ("flow.checkpoint.loaded", `Counter);
    ("flow.checkpoint.rejected", `Counter) ]

type verdict = { summary : string list; problems : string list }

let distinct names = List.length (List.sort_uniq String.compare names)

(* The checks below report through [fail : string -> unit]. *)
let problem fail fmt = Printf.ksprintf fail fmt

(* The parsed lines of [path]; an unreadable file or line is a
   problem. *)
let parsed fail what path =
  let problem fmt = problem fail fmt in
  match read_jsonl path with
  | exception Sys_error e ->
      problem "%s: cannot read the %s file (%s)" path what e;
      []
  | [] ->
      problem "%s: %s file is empty" path what;
      []
  | lines ->
      List.filter_map
        (fun (n, r) ->
          match r with
          | Ok j -> Some (n, j)
          | Error e ->
              problem "%s, line %d: unparsable JSONL (%s)" path n e;
              None)
        lines

let check_trace fail path =
  let problem fmt = problem fail fmt in
  let spans = parsed fail "trace" path in
  let names =
    List.filter_map
      (fun (n, j) ->
        match (Profile.event_of_json j, Json.member "wall_s" j) with
        | Some e, Some (Json.Num w) when w >= 0.0 -> Some e.Span.name
        | Some _, _ ->
            problem "%s, line %d: span without a non-negative wall_s" path n;
            None
        | None, _ ->
            problem "%s, line %d: not a span event" path n;
            None)
      spans
  in
  List.iter
    (fun stage ->
      if not (List.mem stage names) then
        problem "%s: no %S span (a flow stage)" path stage)
    flow_stage_spans;
  Printf.sprintf "%s: %d spans, %d distinct names" path (List.length spans)
    (distinct names)

let check_metrics fail ~require_nonzero path =
  let problem fmt = problem fail fmt in
  let lines = parsed fail "metrics" path in
  let ms =
    List.filter_map
      (fun (n, j) ->
        match metric_of_json j with
        | Some m -> Some m
        | None ->
            problem "%s, line %d: not a counter, gauge or histogram" path n;
            None)
      lines
  in
  List.iter
    (fun (name, kind) ->
      match find name ms with
      | None -> problem "%s: missing metric %S" path name
      | Some v when kind_of v <> kind ->
          problem "%s: metric %S is a %s, want a %s" path name
            (kind_name (kind_of v)) (kind_name kind)
      | Some _ -> ())
    required_metrics;
  List.iter
    (fun name ->
      match find name ms with
      | Some (Metrics.Counter c) when c > 0 -> ()
      | Some (Metrics.Gauge g) when g > 0.0 -> ()
      | Some (Metrics.Counter c) -> problem "%s: metric %S is %d, want > 0" path name c
      | Some (Metrics.Gauge g) -> problem "%s: metric %S is %g, want > 0" path name g
      | Some (Metrics.Histogram _) | None ->
          problem "%s: metric %S has no value to test" path name)
    require_nonzero;
  (* The timing service's latency contract: every verb a session
     counted also observed into its serve.latency.<verb> histogram. *)
  List.iter
    (fun (name, v) ->
      match (v, after ~prefix:"serve.verb." name) with
      | Metrics.Counter c, Some verb when c > 0 -> (
          match histogram_of ("serve.latency." ^ verb) ms with
          | Some h when h.count > 0 -> ()
          | Some _ -> problem "%s: serve.latency.%s histogram is empty" path verb
          | None ->
              problem "%s: verb %S was counted but has no serve.latency.%s histogram"
                path verb verb)
      | _ -> ())
    ms;
  Printf.sprintf "%s: %d metrics, %d distinct names" path (List.length lines)
    (distinct (List.map fst ms))

let check ?trace ?metrics ?(require_nonzero = []) () =
  let problems = ref [] in
  let fail p = problems := p :: !problems in
  if trace = None && metrics = None then
    fail "nothing to check: pass --trace and/or --metrics";
  if metrics = None && require_nonzero <> [] then
    fail "--require-nonzero needs --metrics";
  let trace = Option.map (check_trace fail) trace in
  let metrics = Option.map (check_metrics fail ~require_nonzero) metrics in
  { summary = List.filter_map Fun.id [ trace; metrics ]; problems = List.rev !problems }

(* ---- obs-report ---- *)

let pp_latency ppf ms =
  let latency =
    List.filter_map
      (fun (name, v) ->
        match (v, after ~prefix:"serve.latency." name) with
        | Metrics.Histogram h, Some verb -> Some (verb, h)
        | _ -> None)
      ms
  in
  if latency <> [] then begin
    Format.fprintf ppf "@.service latency (ms):@.";
    Format.fprintf ppf "  %-12s %8s %9s %9s %9s %9s@." "verb" "count" "p50" "p95"
      "p99" "mean";
    List.iter
      (fun (verb, (h : Metrics.histogram_snapshot)) ->
        let mean = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count in
        Format.fprintf ppf "  %-12s %8d %9.3f %9.3f %9.3f %9.3f@." verb h.count
          (quantile h 0.5) (quantile h 0.95) (quantile h 0.99) mean)
      latency
  end

let pp_pools ppf ms =
  match pool_names ms with
  | [] -> ()
  | pools ->
      Format.fprintf ppf "@.worker pools:@.";
      List.iter
        (fun pool ->
          let g suffix =
            Option.value ~default:0.0
              (gauge_of (Printf.sprintf "exec.pool.%s.%s" pool suffix) ms)
          in
          match pool_occupancy ~pool ms with
          | Some occ ->
              Format.fprintf ppf
                "  %-12s domains=%.0f up=%.3fs busy=%.3fs occupancy=%.1f%%@." pool
                (g "domains") (g "up_s") (g "busy_s") (occ *. 100.0)
          | None ->
              Format.fprintf ppf "  %-12s (no up_s gauge: pool was not shut down)@."
                pool)
        pools

let pp_cache ppf ms =
  match cache_hit_rate ms with
  | None -> ()
  | Some rate ->
      let c name = Option.value ~default:0 (counter_of name ms) in
      Format.fprintf ppf
        "@.litho tile cache: hit rate %.1f%% (%d hits / %d misses, %d \
         evictions, %.1f MB resident)@."
        (rate *. 100.0) (c "litho.cache.hits") (c "litho.cache.misses")
        (c "litho.cache.evictions")
        (Option.value ~default:0.0 (gauge_of "litho.cache.bytes" ms) /. 1e6)

let parsed_values of_json path =
  List.filter_map
    (fun (_, r) -> Option.bind (Result.to_option r) of_json)
    (read_jsonl path)

let summarise ?metrics ?trace ppf =
  let ( let* ) = Result.bind in
  let* () =
    match metrics with
    | None -> Ok ()
    | Some path -> (
        match parsed_values metric_of_json path with
        | [] -> Error (path ^ ": no parsable metrics")
        | ms ->
            Format.fprintf ppf "obs-report: %s (%d metrics)@." path (List.length ms);
            pp_latency ppf ms;
            pp_pools ppf ms;
            pp_cache ppf ms;
            Ok ())
  in
  match trace with
  | None -> Ok ()
  | Some path -> (
      match parsed_values Profile.event_of_json path with
      | [] -> Error (path ^ ": no parsable span events")
      | evs ->
          Format.fprintf ppf "@.span profile: %s (%d spans)@.%a@." path
            (List.length evs) Profile.pp_table evs;
          Ok ())
