(* Read-side companion to Metrics: quantile estimation over histogram
   snapshots and parsing of metrics JSONL back into values, for
   obs-report and the serve `metrics all:true` reply. *)

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

let quantiles h =
  [ ("p50", quantile h 0.50); ("p95", quantile h 0.95); ("p99", quantile h 0.99) ]

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

let read_jsonl_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let metrics = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Json.parse line with
             | Ok j -> (
                 match metric_of_json j with
                 | Some m -> metrics := m :: !metrics
                 | None -> ())
             | Error _ -> ()
         done
       with End_of_file -> ());
      List.rev !metrics)

let find name metrics = List.assoc_opt name metrics

let counter_of name metrics =
  match find name metrics with Some (Metrics.Counter n) -> Some n | _ -> None

let gauge_of name metrics =
  match find name metrics with Some (Metrics.Gauge v) -> Some v | _ -> None

let histogram_of name metrics =
  match find name metrics with
  | Some (Metrics.Histogram h) -> Some h
  | _ -> None

(* Names like exec.pool.<pool>.up_s -> the <pool> segment. *)
let pool_names metrics =
  List.filter_map
    (fun (name, _) ->
      let prefix = "exec.pool." and suffix = ".up_s" in
      let pl = String.length prefix and sl = String.length suffix in
      let nl = String.length name in
      if
        nl > pl + sl
        && String.sub name 0 pl = prefix
        && String.sub name (nl - sl) sl = suffix
      then Some (String.sub name pl (nl - pl - sl))
      else None)
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
