(* Offline attribution over a finished Span log, plus Chrome-trace
   export.  Everything here is a pure function of the event list, so
   it can run after tracing is disabled (or on a trace parsed back
   through Report.read_jsonl) without touching the live registry. *)

type node = {
  event : Span.event;
  children : node list;
  self_wall_s : float;
  self_cpu_s : float;
  self_alloc_w : float;
}

let tree events =
  (* An event whose parent is absent from [events] is a root: a
     captured slice (e.g. the benchmark's per-op windows) excludes
     spans outside it. *)
  let ids = Hashtbl.create 64 in
  List.iter (fun (e : Span.event) -> Hashtbl.replace ids e.Span.id ()) events;
  let by_parent = Hashtbl.create 64 in
  List.iter
    (fun (e : Span.event) ->
      let key =
        match e.parent with Some p when Hashtbl.mem ids p -> p | _ -> -1
      in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_parent key) in
      Hashtbl.replace by_parent key (e :: cur))
    events;
  let children_of id =
    Option.value ~default:[] (Hashtbl.find_opt by_parent id)
    |> List.sort (fun (a : Span.event) b -> Int.compare a.id b.id)
  in
  let rec build (e : Span.event) =
    let children = List.map build (children_of e.id) in
    let sub f = List.fold_left (fun acc c -> acc +. f c.event) 0.0 children in
    {
      event = e;
      children;
      self_wall_s = Float.max 0.0 (e.wall_s -. sub (fun e -> e.wall_s));
      self_cpu_s = Float.max 0.0 (e.cpu_s -. sub (fun e -> e.cpu_s));
      self_alloc_w = Float.max 0.0 (e.alloc_w -. sub (fun e -> e.alloc_w));
    }
  in
  List.map build (children_of (-1))

type row = {
  name : string;
  count : int;
  wall_s : float;
  self_wall_s : float;
  alloc_w : float;
  self_alloc_w : float;
}

let aggregate events =
  let tbl : (string, row) Hashtbl.t = Hashtbl.create 32 in
  let rec walk n =
    let r =
      Option.value
        (Hashtbl.find_opt tbl n.event.Span.name)
        ~default:
          {
            name = n.event.Span.name;
            count = 0;
            wall_s = 0.0;
            self_wall_s = 0.0;
            alloc_w = 0.0;
            self_alloc_w = 0.0;
          }
    in
    Hashtbl.replace tbl n.event.Span.name
      {
        r with
        count = r.count + 1;
        wall_s = r.wall_s +. n.event.Span.wall_s;
        self_wall_s = r.self_wall_s +. n.self_wall_s;
        alloc_w = r.alloc_w +. n.event.Span.alloc_w;
        self_alloc_w = r.self_alloc_w +. n.self_alloc_w;
      };
    List.iter walk n.children
  in
  List.iter walk (tree events);
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b ->
         match Float.compare b.self_wall_s a.self_wall_s with
         | 0 -> String.compare a.name b.name
         | c -> c)

(* Chrome-trace ("trace event format") complete events: one "X" event
   per span, microsecond timestamps, one tid per recording domain so
   the viewer nests concurrent worker spans on separate tracks. *)
let chrome_trace events =
  let nodes = tree events in
  let flat = ref [] in
  let rec collect n =
    flat := n :: !flat;
    List.iter collect n.children
  in
  List.iter collect nodes;
  let trace_events =
    List.rev !flat
    |> List.sort (fun a b -> Int.compare a.event.Span.id b.event.Span.id)
    |> List.map (fun n ->
           let e = n.event in
           Json.Obj
             [ ("name", Json.Str e.Span.name);
               ("cat", Json.Str "potx");
               ("ph", Json.Str "X");
               ("ts", Json.Num (e.Span.start_s *. 1e6));
               ("dur", Json.Num (e.Span.wall_s *. 1e6));
               ("pid", Json.Num 1.0);
               ("tid", Json.Num (float_of_int e.Span.domain));
               ( "args",
                 Json.Obj
                   (( "self_wall_ms",
                      Json.Num (n.self_wall_s *. 1e3) )
                    :: ("alloc_w", Json.Num e.Span.alloc_w)
                    :: ("self_alloc_w", Json.Num n.self_alloc_w)
                    :: ("cpu_ms", Json.Num (e.Span.cpu_s *. 1e3))
                    :: List.map
                         (fun (k, v) -> (k, Json.Str v))
                         e.Span.attrs) ) ])
  in
  Json.Obj
    [ ("traceEvents", Json.Arr trace_events);
      ("displayTimeUnit", Json.Str "ms") ]

let write_chrome_trace path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (chrome_trace events));
      output_char oc '\n')

let pp_tree ppf events =
  let rec walk indent n =
    let e = n.event in
    Format.fprintf ppf "@,%s%-*s wall=%.4fs cpu=%.4fs%s%s" indent
      (max 1 (32 - String.length indent))
      e.Span.name e.Span.wall_s e.Span.cpu_s
      (if e.Span.alloc_w > 0.0 then Printf.sprintf " alloc=%.1fMw" (e.Span.alloc_w /. 1e6)
       else "")
      (match e.Span.attrs with
      | [] -> ""
      | attrs -> " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs));
    List.iter (walk (indent ^ "  ")) n.children
  in
  Format.fprintf ppf "@[<v>trace (%d spans)" (List.length events);
  List.iter (walk "  ") (tree events);
  Format.fprintf ppf "@]"

let pp_table ppf events =
  let rows = aggregate events in
  Format.fprintf ppf "@[<v>profile (%d span names, self-time order, all domains summed)"
    (List.length rows);
  Format.fprintf ppf "@,%-32s %6s %12s %12s %12s %12s" "name" "count"
    "wall_dom_s" "self_dom_s" "alloc_dom_Mw" "self_dom_Mw";
  List.iter
    (fun r ->
      Format.fprintf ppf "@,%-32s %6d %12.4f %12.4f %12.3f %12.3f" r.name
        r.count r.wall_s r.self_wall_s (r.alloc_w /. 1e6)
        (r.self_alloc_w /. 1e6))
    rows;
  Format.fprintf ppf "@]"

(* One {"type":"span",...} line of a trace written by Span.stream_to,
   back into an event. *)
let event_of_json j =
  let open Json in
  match member "type" j with
  | Some (Str "span") ->
      let num k = Option.bind (member k j) to_float in
      let str k = Option.bind (member k j) to_str in
      (match (num "id", str "name") with
      | Some id, Some name ->
          Some
            {
              Span.id = int_of_float id;
              parent =
                (match member "parent" j with
                | Some (Num p) -> Some (int_of_float p)
                | _ -> None);
              depth =
                (match num "depth" with Some d -> int_of_float d | None -> 0);
              name;
              attrs =
                (match member "attrs" j with
                | Some (Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        match to_str v with
                        | Some s -> Some (k, s)
                        | None -> None)
                      kvs
                | _ -> []);
              domain =
                (match num "domain" with Some d -> int_of_float d | None -> 0);
              start_s = Option.value (num "start_s") ~default:0.0;
              wall_s = Option.value (num "wall_s") ~default:0.0;
              cpu_s = Option.value (num "cpu_s") ~default:0.0;
              alloc_w = Option.value (num "alloc_w") ~default:0.0;
            }
      | _ -> None)
  | _ -> None
