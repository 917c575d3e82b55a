type counter = int Atomic.t

(* Atomic float cell; [add] is a CAS loop so gauge accumulation from
   worker domains never loses updates. *)
type gauge = float Atomic.t

type histogram = {
  edges : float array;
  counts : int array;
  mutable sum : float;
  mutable count : int;
  h_mutex : Mutex.t;
}

type metric = C of counter | G of gauge | H of histogram

type t = { mutex : Mutex.t; table : (string, metric) Hashtbl.t }

let create () = { mutex = Mutex.create (); table = Hashtbl.create 32 }

let global = create ()

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

(* Get-or-create under the registry lock; a name can only ever hold
   one instrument kind. *)
let register registry name ~make ~cast =
  let r = Option.value registry ~default:global in
  Mutex.lock r.mutex;
  let m =
    match Hashtbl.find_opt r.table name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add r.table name m;
        m
  in
  Mutex.unlock r.mutex;
  match cast m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
           (kind_name m))

let counter ?registry name =
  register registry name
    ~make:(fun () -> C (Atomic.make 0))
    ~cast:(function C c -> Some c | _ -> None)

let add c n = ignore (Atomic.fetch_and_add c n)

let incr c = add c 1

let counter_value = Atomic.get

let gauge ?registry name =
  register registry name
    ~make:(fun () -> G (Atomic.make 0.0))
    ~cast:(function G g -> Some g | _ -> None)

let set_gauge = Atomic.set

let rec add_gauge g v =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. v)) then add_gauge g v

let gauge_value = Atomic.get

let default_edges = [| 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

let histogram ?registry ?(edges = default_edges) name =
  let ok = ref (Array.length edges > 0) in
  Array.iteri (fun i e -> if i > 0 && e <= edges.(i - 1) then ok := false) edges;
  if not !ok then invalid_arg "Obs.Metrics.histogram: edges must be strictly increasing";
  register registry name
    ~make:(fun () ->
      H
        {
          edges = Array.copy edges;
          counts = Array.make (Array.length edges + 1) 0;
          sum = 0.0;
          count = 0;
          h_mutex = Mutex.create ();
        })
    ~cast:(function H h -> Some h | _ -> None)

let bucket_of edges v =
  let n = Array.length edges in
  let i = ref 0 in
  while !i < n && v > edges.(!i) do
    i := !i + 1
  done;
  !i

let observe h v =
  let b = bucket_of h.edges v in
  Mutex.lock h.h_mutex;
  h.counts.(b) <- h.counts.(b) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  Mutex.unlock h.h_mutex

type histogram_snapshot = {
  edges : float array;
  counts : int array;
  count : int;
  sum : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

let read = function
  | C c -> Counter (Atomic.get c)
  | G g -> Gauge (Atomic.get g)
  | H h ->
      Mutex.lock h.h_mutex;
      let s =
        {
          edges = Array.copy h.edges;
          counts = Array.copy h.counts;
          count = h.count;
          sum = h.sum;
        }
      in
      Mutex.unlock h.h_mutex;
      Histogram s

let snapshot r =
  Mutex.lock r.mutex;
  let entries = Hashtbl.fold (fun k m acc -> (k, m) :: acc) r.table [] in
  Mutex.unlock r.mutex;
  entries
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, m) -> (k, read m))

let reset r =
  Mutex.lock r.mutex;
  let entries = Hashtbl.fold (fun _ m acc -> m :: acc) r.table [] in
  Mutex.unlock r.mutex;
  List.iter
    (function
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.0
      | H h ->
          Mutex.lock h.h_mutex;
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.sum <- 0.0;
          h.count <- 0;
          Mutex.unlock h.h_mutex)
    entries

let json_of_metric name v : Json.t =
  match v with
  | Counter n ->
      Json.Obj
        [ ("type", Json.Str "counter"); ("name", Json.Str name);
          ("value", Json.Num (float_of_int n)) ]
  | Gauge v ->
      Json.Obj
        [ ("type", Json.Str "gauge"); ("name", Json.Str name); ("value", Json.Num v) ]
  | Histogram h ->
      Json.Obj
        [ ("type", Json.Str "histogram"); ("name", Json.Str name);
          ("edges", Json.Arr (Array.to_list (Array.map (fun e -> Json.Num e) h.edges)));
          ("counts",
           Json.Arr
             (Array.to_list (Array.map (fun c -> Json.Num (float_of_int c)) h.counts)));
          ("count", Json.Num (float_of_int h.count)); ("sum", Json.Num h.sum) ]

let write_jsonl oc r =
  List.iter
    (fun (name, v) ->
      output_string oc (Json.to_string (json_of_metric name v));
      output_char oc '\n')
    (snapshot r)

let save_jsonl_file path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_jsonl oc r)
