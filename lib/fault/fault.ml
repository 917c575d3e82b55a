exception Injected of string

type action =
  | Fail of int
  | Always
  | Delay_ms of float
  | Flaky of float

type rule = { pattern : string; action : action }

type plan = { seed : int; rules : rule list }

let m_injected = Obs.Metrics.counter "fault.injected"

let m_retries = Obs.Metrics.counter "exec.retries"

(* ---- spec parsing ---- *)

let action_to_string = function
  | Fail 1 -> "fail"
  | Fail n -> Printf.sprintf "fail%d" n
  | Always -> "always"
  | Delay_ms ms -> Printf.sprintf "delay%g" ms
  | Flaky p -> Printf.sprintf "p%g" p

let to_string plan =
  String.concat ";"
    ((if plan.seed = 0 then [] else [ Printf.sprintf "seed=%d" plan.seed ])
    @ List.map (fun r -> r.pattern ^ "=" ^ action_to_string r.action) plan.rules)

let parse_action s =
  let tail prefix = String.sub s (String.length prefix) (String.length s - String.length prefix) in
  let starts prefix =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  if s = "fail" then Ok (Fail 1)
  else if s = "always" then Ok Always
  else if starts "fail" then
    match int_of_string_opt (tail "fail") with
    | Some n when n >= 1 -> Ok (Fail n)
    | _ -> Error (Printf.sprintf "bad fail count in %S" s)
  else if starts "delay" then
    match float_of_string_opt (tail "delay") with
    | Some ms when ms >= 0.0 -> Ok (Delay_ms ms)
    | _ -> Error (Printf.sprintf "bad delay in %S" s)
  else if starts "p" then
    match float_of_string_opt (tail "p") with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Flaky p)
    | _ -> Error (Printf.sprintf "bad probability in %S" s)
  else Error (Printf.sprintf "unknown action %S" s)

let valid_pattern p =
  p <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '*')
       p

let parse spec =
  let clauses =
    String.split_on_char ';' spec |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  if clauses = [] then Error "empty fault spec"
  else
    let rec go seed rules = function
      | [] -> Ok { seed; rules = List.rev rules }
      | clause :: rest -> (
          match String.index_opt clause '=' with
          | None -> Error (Printf.sprintf "clause %S: expected POINT=ACTION" clause)
          | Some i -> (
              let key = String.trim (String.sub clause 0 i) in
              let value =
                String.trim (String.sub clause (i + 1) (String.length clause - i - 1))
              in
              if key = "seed" then
                match int_of_string_opt value with
                | Some s -> go s rules rest
                | None -> Error (Printf.sprintf "bad seed %S" value)
              else if not (valid_pattern key) then
                Error (Printf.sprintf "bad fault point %S" key)
              else
                match parse_action value with
                | Ok action -> go seed ({ pattern = key; action } :: rules) rest
                | Error e -> Error (Printf.sprintf "clause %S: %s" clause e)))
    in
    go 0 [] clauses

(* ---- active plan and hit counting ---- *)

(* The plan pointer is the only thing the disabled fast path reads;
   hit counters live behind a mutex because points fire from worker
   domains. *)
let active : plan option Atomic.t = Atomic.make None

let hits_mutex = Mutex.create ()

let hits : (string, int) Hashtbl.t = Hashtbl.create 16

let set_plan p =
  Mutex.lock hits_mutex;
  Hashtbl.reset hits;
  Mutex.unlock hits_mutex;
  Atomic.set active p

let declared_mutex = Mutex.create ()

let declared : (string, unit) Hashtbl.t = Hashtbl.create 16

let declare name =
  Mutex.lock declared_mutex;
  Hashtbl.replace declared name ();
  Mutex.unlock declared_mutex

let points () =
  Mutex.lock declared_mutex;
  let names = Hashtbl.fold (fun k () acc -> k :: acc) declared [] in
  Mutex.unlock declared_mutex;
  List.sort String.compare names

let matches pattern name =
  pattern = name
  || (String.length pattern > 0
      && pattern.[String.length pattern - 1] = '*'
      &&
      let prefix = String.sub pattern 0 (String.length pattern - 1) in
      String.length name >= String.length prefix
      && String.sub name 0 (String.length prefix) = prefix)

let next_hit name =
  Mutex.lock hits_mutex;
  let n = Option.value ~default:0 (Hashtbl.find_opt hits name) in
  Hashtbl.replace hits name (n + 1);
  Mutex.unlock hits_mutex;
  n

let inject name =
  Obs.Metrics.incr m_injected;
  raise (Injected name)

let point name f =
  match Atomic.get active with
  | None -> f ()
  | Some plan -> (
      if not (Hashtbl.mem declared name) then declare name;
      match List.find_opt (fun r -> matches r.pattern name) plan.rules with
      | None -> f ()
      | Some rule -> (
          let hit = next_hit name in
          match rule.action with
          | Fail n -> if hit < n then inject name else f ()
          | Always -> inject name
          | Delay_ms ms ->
              Unix.sleepf (ms /. 1000.0);
              f ()
          | Flaky p ->
              (* Keyed by (seed, point, hit) so the decision for a given
                 hit is independent of the order domains reach it. *)
              let rng = Stats.Rng.create (Hashtbl.hash (plan.seed, name, hit)) in
              if Stats.Rng.float rng < p then inject name else f ()))

(* ---- retries ---- *)

type retry = {
  attempts : int;
  backoff_s : float;
  backoff_factor : float;
  max_backoff_s : float;
}

let no_retry = { attempts = 1; backoff_s = 0.0; backoff_factor = 1.0; max_backoff_s = 0.0 }

let retrying n =
  {
    attempts = 1 + max 0 n;
    backoff_s = 0.001;
    backoff_factor = 2.0;
    max_backoff_s = 0.1;
  }

let with_retry ?(on_retry = fun _ -> ()) r f =
  let attempts = max 1 r.attempts in
  let rec go attempt backoff =
    try f ()
    with _ when attempt < attempts ->
      Obs.Metrics.incr m_retries;
      on_retry attempt;
      if backoff > 0.0 then Unix.sleepf backoff;
      go (attempt + 1) (Float.min r.max_backoff_s (backoff *. r.backoff_factor))
  in
  go 1 r.backoff_s
