type stage_stats = { calls : int; tasks : int; wall_s : float }

(* Per-label instruments live in the global Obs.Metrics registry under
   [exec.pool.<pool>.<label>.*]; the pool-local entry only remembers
   the registry values at the moment this pool first used the label,
   so [report] can present a per-pool-instance view of the shared
   (cumulative, cross-pool) registry counters. *)
type stage_handle = {
  calls_m : Obs.Metrics.counter;
  tasks_m : Obs.Metrics.counter;
  wall_m : Obs.Metrics.gauge;
  calls0 : int;
  tasks0 : int;
  wall0 : float;
}

(* One [map]: [n] tasks, claimed by fetch-and-add on [next], so a claim
   takes no lock and every index is run by exactly one domain.
   [parent] is the job whose task opened this one, which is how a
   waiting caller recognises the work it waits on. *)
type job = {
  n : int;
  body : int -> unit;
  next : int Atomic.t;  (* >= n once every task is claimed *)
  unfinished : int Atomic.t;
  (* Lowest failing index; keeping the minimum makes the re-raised
     exception independent of the domain count. *)
  failure : (int * exn * Printexc.raw_backtrace) option Atomic.t;
  parent : job option;
}

type t = {
  name : string;
  n_domains : int;
  mutex : Mutex.t; (* guards [queue], [stop] and [stats] *)
  changed : Condition.t; (* a job was queued or finished, or the pool stops *)
  mutable queue : job list; (* jobs that may hold unclaimed tasks, newest first *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  stats : (string, stage_handle) Hashtbl.t;
  (* Occupancy accounting: busy worker-seconds accumulate into
     [exec.pool.<name>.busy_s] while tasks execute; uptime is
     published to [.up_s] at shutdown so occupancy can be derived
     offline as busy / (up * domains). *)
  created_s : float;
  busy_m : Obs.Metrics.gauge;
  busy0 : float; (* registry value at create; gauges outlive pool instances *)
  up_m : Obs.Metrics.gauge;
}

(* What this domain is running: the innermost job whose task it is in,
   and, while it is in one, when its outermost task started and how
   long it has since blocked.  A domain that helps a nested job is
   still inside its outermost task, so its busy time counts once. *)
type domain_state = {
  mutable current : job option;
  mutable since : float;
  mutable blocked : float;
}

let state : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { current = None; since = 0.0; blocked = 0.0 })

let domains t = t.n_domains

let rec record_failure j i e bt =
  let seen = Atomic.get j.failure in
  match seen with
  | Some (k, _, _) when k <= i -> ()
  | _ ->
      if not (Atomic.compare_and_set j.failure seen (Some (i, e, bt))) then
        record_failure j i e bt

(* Run task [i] of [j] on this domain.  A task above an index that has
   already failed is skipped: the job raises anyway, and no index
   below the lowest failure is ever skipped. *)
let run_task t j i =
  let st = Domain.DLS.get state in
  let outer = st.current in
  if Option.is_none outer then begin
    st.since <- Unix.gettimeofday ();
    st.blocked <- 0.0
  end;
  st.current <- Some j;
  (match Atomic.get j.failure with
  | Some (k, _, _) when k < i -> ()
  | _ -> ( try j.body i with e -> record_failure j i e (Printexc.get_raw_backtrace ())));
  st.current <- outer;
  if Option.is_none outer then
    Obs.Metrics.add_gauge t.busy_m (Unix.gettimeofday () -. st.since -. st.blocked);
  if Atomic.fetch_and_add j.unfinished (-1) = 1 then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.changed;
    Mutex.unlock t.mutex
  end

let claim t j =
  let i = Atomic.fetch_and_add j.next 1 in
  if i < j.n then run_task t j i

(* Under [t.mutex]: drop the jobs whose tasks are all claimed, and
   return the newest remaining one that satisfies [ok]. *)
let find_locked t ok =
  t.queue <- List.filter (fun j -> Atomic.get j.next < j.n) t.queue;
  List.find_opt ok t.queue

(* Under [t.mutex]: wait for a change.  Time blocked inside a task is
   not busy time. *)
let block t =
  let st = Domain.DLS.get state in
  let t0 = Unix.gettimeofday () in
  Condition.wait t.changed t.mutex;
  if Option.is_some st.current then
    st.blocked <- st.blocked +. (Unix.gettimeofday () -. t0)

let rec descends ~from j =
  match j.parent with Some p -> p == from || descends ~from p | None -> false

let worker t () =
  let rec next () =
    if t.stop then None
    else
      match find_locked t (fun _ -> true) with
      | Some _ as j -> j
      | None ->
          block t;
          next ()
  in
  let rec loop () =
    Mutex.lock t.mutex;
    let j = next () in
    Mutex.unlock t.mutex;
    match j with
    | Some j ->
        claim t j;
        loop ()
    | None -> ()
  in
  loop ()

(* The caller of [j] claims its tasks until none is left, then helps
   the jobs opened under [j] (newest first) until every task of [j]
   has finished.  It blocks only when none of that work is queued. *)
let await t j =
  while Atomic.get j.next < j.n do
    claim t j
  done;
  while Atomic.get j.unfinished > 0 do
    Mutex.lock t.mutex;
    let help =
      if Atomic.get j.unfinished = 0 then None
      else
        match find_locked t (descends ~from:j) with
        | Some _ as k -> k
        | None ->
            block t;
            None
    in
    Mutex.unlock t.mutex;
    Option.iter (claim t) help
  done

(* A job of one task, or on a pool without workers, stays off the
   queue: its caller runs every task itself. *)
let open_job t ~n body =
  let j =
    {
      n;
      body;
      next = Atomic.make 0;
      unfinished = Atomic.make n;
      failure = Atomic.make None;
      parent = (Domain.DLS.get state).current;
    }
  in
  if n > 1 && t.n_domains > 1 then begin
    Mutex.lock t.mutex;
    t.queue <- j :: t.queue;
    Condition.broadcast t.changed;
    Mutex.unlock t.mutex
  end;
  j

let create ?(name = "pool") ~domains () =
  let n_domains = max 1 domains in
  let metric suffix = Printf.sprintf "exec.pool.%s.%s" name suffix in
  let t =
    {
      name;
      n_domains;
      mutex = Mutex.create ();
      changed = Condition.create ();
      queue = [];
      stop = false;
      workers = [];
      stats = Hashtbl.create 8;
      created_s = Unix.gettimeofday ();
      busy_m = Obs.Metrics.gauge (metric "busy_s");
      busy0 = Obs.Metrics.gauge_value (Obs.Metrics.gauge (metric "busy_s"));
      up_m = Obs.Metrics.gauge (metric "up_s");
    }
  in
  Obs.Metrics.set_gauge (Obs.Metrics.gauge (metric "domains")) (float_of_int n_domains);
  t.workers <- List.init (n_domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let uptime t = Unix.gettimeofday () -. t.created_s

let occupancy t =
  let up = uptime t in
  if up <= 0.0 then 0.0
  else
    (Obs.Metrics.gauge_value t.busy_m -. t.busy0)
    /. (up *. float_of_int t.n_domains)

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- [];
  Obs.Metrics.set_gauge t.up_m (uptime t)

let with_pool ?name ~domains f =
  let t = create ?name ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let stage_handle t label =
  Mutex.lock t.mutex;
  let h =
    match Hashtbl.find_opt t.stats label with
    | Some h -> h
    | None ->
        let metric suffix = Printf.sprintf "exec.pool.%s.%s.%s" t.name label suffix in
        let calls_m = Obs.Metrics.counter (metric "calls") in
        let tasks_m = Obs.Metrics.counter (metric "tasks") in
        let wall_m = Obs.Metrics.gauge (metric "wall_s") in
        let h =
          {
            calls_m;
            tasks_m;
            wall_m;
            calls0 = Obs.Metrics.counter_value calls_m;
            tasks0 = Obs.Metrics.counter_value tasks_m;
            wall0 = Obs.Metrics.gauge_value wall_m;
          }
        in
        Hashtbl.add t.stats label h;
        h
  in
  Mutex.unlock t.mutex;
  h

let bump_stats t label ~n ~wall =
  let h = stage_handle t label in
  Obs.Metrics.incr h.calls_m;
  Obs.Metrics.add h.tasks_m n;
  Obs.Metrics.add_gauge h.wall_m wall

(* Run [body 0 .. body (n-1)] as one job. *)
let dispatch t ~label ~n body =
  if n > 0 then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> bump_stats t label ~n ~wall:(Unix.gettimeofday () -. t0))
      (fun () ->
        let j = open_job t ~n body in
        await t j;
        match Atomic.get j.failure with
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
  end

let init ?(label = "init") t n f =
  if n = 0 then [||]
  else begin
    let res = Array.make n None in
    dispatch t ~label ~n (fun i -> res.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) res
  end

let map ?(label = "map") t f xs =
  init ~label t (Array.length xs) (fun i -> f xs.(i))

let map_list ?(label = "map") t f xs =
  Array.to_list (map ~label t f (Array.of_list xs))

let concat_map_list ?(label = "concat_map") t f xs =
  List.concat (map_list ~label t f xs)

let map_reduce ?(label = "map_reduce") t ~map:f ~reduce ~init:acc0 xs =
  Array.fold_left reduce acc0 (map ~label t f xs)

let report t =
  Mutex.lock t.mutex;
  let rows = Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.stats [] in
  Mutex.unlock t.mutex;
  rows
  |> List.map (fun (label, h) ->
         ( label,
           {
             calls = Obs.Metrics.counter_value h.calls_m - h.calls0;
             tasks = Obs.Metrics.counter_value h.tasks_m - h.tasks0;
             wall_s = Obs.Metrics.gauge_value h.wall_m -. h.wall0;
           } ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Dropping the label entries re-baselines this pool's view; the
   registry metrics themselves keep their cumulative values. *)
let reset_stats t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.stats;
  Mutex.unlock t.mutex

let recommended ?(cap = 4) () = max 1 (min cap (Domain.recommended_domain_count ()))
