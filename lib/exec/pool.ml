type stage_stats = { calls : int; tasks : int; retries : int; wall_s : float }

(* Per-label instruments live in the global Obs.Metrics registry under
   [exec.pool.<pool>.<label>.*]; the pool-local entry only remembers
   the registry values at the moment this pool first used the label,
   so [report] can present a per-pool-instance view of the shared
   (cumulative, cross-pool) registry counters. *)
type stage_handle = {
  calls_m : Obs.Metrics.counter;
  tasks_m : Obs.Metrics.counter;
  retries_m : Obs.Metrics.counter;
  wall_m : Obs.Metrics.gauge;
  calls0 : int;
  tasks0 : int;
  retries0 : int;
  wall0 : float;
}

type t = {
  name : string;
  n_domains : int;
  mutex : Mutex.t; (* guards all mutable fields below + stats *)
  work : Condition.t; (* workers park here between jobs *)
  finished : Condition.t; (* caller parks here until remaining = 0 *)
  client : Mutex.t; (* serialises whole jobs from different clients *)
  mutable generation : int;
  mutable job : (int -> unit) option; (* slot -> run that slot's share *)
  mutable remaining : int;
  mutable stop : bool;
  (* Lowest-index task failure of the current job; keeping the minimum
     makes the re-raised exception independent of worker count. *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t list;
  stats : (string, stage_handle) Hashtbl.t;
  (* Occupancy accounting: busy worker-seconds accumulate into
     [exec.pool.<name>.busy_s] while shares execute; uptime is
     published to [.up_s] at shutdown so occupancy can be derived
     offline as busy / (up * domains). *)
  created_s : float;
  busy_m : Obs.Metrics.gauge;
  busy0 : float; (* registry value at create; gauges outlive pool instances *)
  up_m : Obs.Metrics.gauge;
}

(* Set while a domain is executing pool tasks: a task that re-enters
   the pool runs its nested job inline instead of deadlocking on the
   busy workers. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let domains t = t.n_domains

let record_failure t i exn bt =
  Mutex.lock t.mutex;
  (match t.failure with
  | Some (j, _, _) when j <= i -> ()
  | _ -> t.failure <- Some (i, exn, bt));
  Mutex.unlock t.mutex

(* Slot [slot] of [stride] computes tasks slot, slot+stride, ... and
   stops its stride at the first failing index.  Pure tasks therefore
   surface the same (minimal) failing index for any worker count. *)
let run_stride t ~n ~stride body slot =
  let i = ref slot in
  try
    while !i < n do
      body !i;
      i := !i + stride
    done
  with e -> record_failure t !i e (Printexc.get_raw_backtrace ())

(* Time one share's execution into the pool's busy gauge. *)
let busy t f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.add_gauge t.busy_m (Unix.gettimeofday () -. t0))
    f

let worker t slot () =
  Domain.DLS.set in_task true;
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = !last do
      Condition.wait t.work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      last := t.generation;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.mutex;
      busy t (fun () -> job slot);
      Mutex.lock t.mutex;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ?(name = "pool") ~domains () =
  let n_domains = max 1 domains in
  let metric suffix = Printf.sprintf "exec.pool.%s.%s" name suffix in
  let t =
    {
      name;
      n_domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      client = Mutex.create ();
      generation = 0;
      job = None;
      remaining = 0;
      stop = false;
      failure = None;
      workers = [];
      stats = Hashtbl.create 8;
      created_s = Unix.gettimeofday ();
      busy_m = Obs.Metrics.gauge (metric "busy_s");
      busy0 = Obs.Metrics.gauge_value (Obs.Metrics.gauge (metric "busy_s"));
      up_m = Obs.Metrics.gauge (metric "up_s");
    }
  in
  Obs.Metrics.set_gauge (Obs.Metrics.gauge (metric "domains")) (float_of_int n_domains);
  t.workers <- List.init (n_domains - 1) (fun i -> Domain.spawn (worker t (i + 1)));
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
  Condition.broadcast t.work;
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
        let retries_m = Obs.Metrics.counter (metric "retries") in
        let wall_m = Obs.Metrics.gauge (metric "wall_s") in
        let h =
          {
            calls_m;
            tasks_m;
            retries_m;
            wall_m;
            calls0 = Obs.Metrics.counter_value calls_m;
            tasks0 = Obs.Metrics.counter_value tasks_m;
            retries0 = Obs.Metrics.counter_value retries_m;
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

(* Run [body 0 .. body (n-1)]; parallel when the pool has spare
   domains and we are not already inside a pool task.  With [retry], a
   task that raises is retried in place on its worker (bounded
   backoff, per-label retry counter); only exhausted retries surface
   through the min-index failure protocol.  Pure tasks therefore
   yield bit-identical results whether or not any retry fired. *)
let dispatch t ~label ?(retry = Fault.no_retry) ~n body =
  if n > 0 then begin
    let body =
      if retry.Fault.attempts <= 1 then body
      else
        let h = stage_handle t label in
        fun i ->
          Fault.with_retry ~on_retry:(fun _ -> Obs.Metrics.incr h.retries_m) retry
            (fun () -> body i)
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> bump_stats t label ~n ~wall:(Unix.gettimeofday () -. t0))
      (fun () ->
        let stride =
          if t.n_domains = 1 || n = 1 || Domain.DLS.get in_task then 1
          else t.n_domains
        in
        if stride = 1 then
          busy t (fun () ->
              for i = 0 to n - 1 do
                body i
              done)
        else begin
          Mutex.lock t.client;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.client)
            (fun () ->
              let share = run_stride t ~n ~stride body in
              Mutex.lock t.mutex;
              t.failure <- None;
              t.job <- Some share;
              t.remaining <- t.n_domains - 1;
              t.generation <- t.generation + 1;
              Condition.broadcast t.work;
              Mutex.unlock t.mutex;
              Domain.DLS.set in_task true;
              busy t (fun () -> share 0);
              Domain.DLS.set in_task false;
              Mutex.lock t.mutex;
              while t.remaining > 0 do
                Condition.wait t.finished t.mutex
              done;
              t.job <- None;
              let failure = t.failure in
              t.failure <- None;
              Mutex.unlock t.mutex;
              match failure with
              | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
              | None -> ())
        end)
  end

let init ?(label = "init") ?retry t n f =
  if n = 0 then [||]
  else begin
    let res = Array.make n None in
    dispatch t ~label ?retry ~n (fun i -> res.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) res
  end

let map ?(label = "map") ?retry t f xs =
  init ~label ?retry t (Array.length xs) (fun i -> f xs.(i))

let map_list ?(label = "map") ?retry t f xs =
  Array.to_list (map ~label ?retry t f (Array.of_list xs))

let concat_map_list ?(label = "concat_map") ?retry t f xs =
  List.concat (map_list ~label ?retry t f xs)

let map_reduce ?(label = "map_reduce") ?retry t ~map:f ~reduce ~init:acc0 xs =
  Array.fold_left reduce acc0 (map ~label ?retry t f xs)

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
             retries = Obs.Metrics.counter_value h.retries_m - h.retries0;
             wall_s = Obs.Metrics.gauge_value h.wall_m -. h.wall0;
           } ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Dropping the label entries re-baselines this pool's view; the
   registry metrics themselves keep their cumulative values. *)
let reset_stats t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.stats;
  Mutex.unlock t.mutex

let pp_report ppf t =
  Format.fprintf ppf "@[<v>pool %s (%d domains)" t.name t.n_domains;
  List.iter
    (fun (label, s) ->
      Format.fprintf ppf "@,  %-16s calls=%d tasks=%d retries=%d wall=%.3fs" label
        s.calls s.tasks s.retries s.wall_s)
    (report t);
  Format.fprintf ppf "@]"

let recommended ?(cap = 4) () = max 1 (min cap (Domain.recommended_domain_count ()))
