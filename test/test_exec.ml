(* The Exec.Pool contract: parallel map/map_reduce agree with the
   sequential oracle bit-for-bit at every worker count, also when
   tasks map on their own pool, exceptions propagate
   deterministically, and the flow built on top produces identical
   timing whether it runs on 1 or 4 domains. *)

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* A floating-point task whose value depends on evaluation order if
   anything reorders the arithmetic — a good canary for determinism. *)
let heavy x =
  let acc = ref (float_of_int x) in
  for i = 1 to 500 do
    acc := !acc +. sin (!acc *. float_of_int i) /. float_of_int i
  done;
  !acc

let inputs = Array.init 97 (fun i -> i)

let with_domains domains f = Exec.Pool.with_pool ~domains f

(* [f what p] on fresh pools of 1, 2 and 4 domains, then on the shared
   one-domain pool; [what] names the pool in check messages. *)
let each_pool f =
  List.iter
    (fun domains -> with_domains domains (f (Printf.sprintf "%d domains" domains)))
    [ 1; 2; 4 ];
  f "the shared pool" Exec.Pool.sequential

let test_map_matches_oracle () =
  let oracle = Array.map heavy inputs in
  each_pool (fun what p ->
      checkb ("map oracle, " ^ what) true (Exec.Pool.map p heavy inputs = oracle))

let test_map_list_order () =
  let xs = List.init 23 (fun i -> i) in
  let oracle = List.map (fun i -> i * i) xs in
  List.iter
    (fun domains ->
      let got = with_domains domains (fun p -> Exec.Pool.map_list p (fun i -> i * i) xs) in
      checkb (Printf.sprintf "map_list order, %d domains" domains) true (got = oracle))
    [ 1; 2; 4 ]

let test_concat_map_order () =
  let xs = List.init 17 Fun.id in
  let oracle = List.concat_map (fun i -> [ i; i * 10 ]) xs in
  let got =
    with_domains 4 (fun p -> Exec.Pool.concat_map_list p (fun i -> [ i; i * 10 ]) xs)
  in
  checkb "concat order preserved" true (got = oracle)

let test_map_reduce_matches_sequential_fold () =
  (* Non-associative accumulation: any reordering of the reduction
     changes the rounding, so equality here proves ordered reduction. *)
  let reduce acc x = (acc *. 0.99) +. x in
  let oracle = Array.fold_left (fun acc x -> reduce acc (heavy x)) 1.0 inputs in
  List.iter
    (fun domains ->
      let got =
        with_domains domains (fun p ->
            Exec.Pool.map_reduce p ~map:heavy ~reduce ~init:1.0 inputs)
      in
      checkb
        (Printf.sprintf "map_reduce ordered, %d domains" domains)
        true
        (got = oracle))
    [ 1; 2; 4 ]

let test_empty_and_singleton () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          checkb "empty map" true (Exec.Pool.map p heavy [||] = [||]);
          checkb "empty list" true (Exec.Pool.map_list p heavy [] = []);
          checkb "singleton" true (Exec.Pool.map p heavy [| 3 |] = [| heavy 3 |]);
          Alcotest.(check (float 0.0))
            "empty reduce is init" 7.5
            (Exec.Pool.map_reduce p ~map:heavy ~reduce:( +. ) ~init:7.5 [||])))
    [ 1; 4 ]

(* Above the runtime's limit a pool is refused before any worker domain
   starts, so this spawns none. *)
let test_domain_limit () =
  let n = Exec.Pool.max_domains + 1 in
  Alcotest.check_raises "above the limit"
    (Invalid_argument
       (Printf.sprintf "Exec.Pool.create: %d domains is above the limit of %d" n
          Exec.Pool.max_domains))
    (fun () -> ignore (Exec.Pool.create ~domains:n ()))

let test_exception_propagates () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          Alcotest.check_raises
            (Printf.sprintf "first failing index, %d domains" domains)
            (Failure "task 5")
            (fun () ->
              ignore
                (Exec.Pool.map p
                   (fun i -> if i >= 5 then failwith (Printf.sprintf "task %d" i) else i)
                   inputs));
          (* The pool survives a failed job. *)
          checki "pool usable after failure" 10
            (Exec.Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:0 [| 1; 2; 3; 4 |])))
    [ 1; 2; 4 ]

(* ---- reentrancy: tasks that map on their own pool ---- *)

(* Non-associative fold, as in the map_reduce test. *)
let fold acc x = (acc *. 0.99) +. x

(* Three levels of nesting, each wider than four domains: floats whose
   rounding exposes any reordering, and the index triples in order. *)
let nested_values map map_reduce =
  map
    (fun a ->
      map_reduce
        (fun b ->
          map_reduce (fun c -> heavy ((a * 100) + (b * 10) + c)) (Array.init 5 Fun.id))
        (Array.init 6 Fun.id))
    (Array.init 7 Fun.id)

let nested_order concat_map =
  concat_map
    (fun a ->
      concat_map
        (fun b -> concat_map (fun c -> [ (a, b, c) ]) (List.init 5 Fun.id))
        (List.init 6 Fun.id))
    (List.init 7 Fun.id)

let sequential_values () =
  nested_values Array.map (fun f xs ->
      Array.fold_left (fun acc x -> fold acc (f x)) 1.0 xs)

let pool_values p =
  nested_values (Exec.Pool.map p) (fun f xs ->
      Exec.Pool.map_reduce p ~map:f ~reduce:fold ~init:1.0 xs)

let test_nested_matches_oracle () =
  let values = sequential_values () in
  let order = nested_order List.concat_map in
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          checkb
            (Printf.sprintf "nested values, %d domains" domains)
            true
            (pool_values p = values);
          checkb
            (Printf.sprintf "nested order, %d domains" domains)
            true
            (nested_order (Exec.Pool.concat_map_list p) = order)))
    [ 1; 2; 4 ]

(* Every index of every job, outer and nested, runs exactly once,
   however many more tasks than domains there are. *)
let test_more_tasks_than_domains () =
  List.iter
    (fun domains ->
      let runs = Array.init 3 (fun _ -> Array.init 200 (fun _ -> Atomic.make 0)) in
      with_domains domains (fun p ->
          ignore
            (Exec.Pool.map p
               (fun a ->
                 Exec.Pool.map p
                   (fun i -> Atomic.incr runs.(a).(i))
                   (Array.init 200 Fun.id))
               [| 0; 1; 2 |]));
      checkb
        (Printf.sprintf "each task ran once, %d domains" domains)
        true
        (Array.for_all (Array.for_all (fun c -> Atomic.get c = 1)) runs))
    [ 1; 2; 4 ]

let test_nested_exception () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          Alcotest.check_raises
            (Printf.sprintf "lowest failing index, %d domains" domains)
            (Failure "2.3")
            (fun () ->
              ignore
                (Exec.Pool.map p
                   (fun a ->
                     Exec.Pool.map p
                       (fun i ->
                         if a >= 2 && i >= 3 then failwith (Printf.sprintf "%d.%d" a i)
                         else i)
                       (Array.init 9 Fun.id))
                   (Array.init 6 Fun.id)));
          checki "pool usable after a nested failure" 10
            (Exec.Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:0 [| 1; 2; 3; 4 |])))
    [ 1; 2; 4 ]

(* Two inner tasks that each wait (bounded) for the other to start:
   both return true only if they ran at the same time on two
   domains. *)
let rendezvous () =
  let arrived = Atomic.make 0 in
  fun _ ->
    Atomic.incr arrived;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.0005
    done;
    Atomic.get arrived >= 2

(* The only outer task still running opens a job of two tasks that
   must meet: the idle domain has to take one of them.  Once with a
   trivial sibling outer task, once with a lone outer task. *)
let test_lone_task_nested_parallel () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          let inner () = Exec.Pool.map p (rendezvous ()) [| 0; 1 |] in
          let got =
            Exec.Pool.map p
              (fun a -> if a = 0 then [| true; true |] else inner ())
              [| 0; 1 |]
          in
          checkb
            (Printf.sprintf "nested job met beside a finished task, %d domains" domains)
            true
            (Array.for_all (Array.for_all Fun.id) got);
          let got = Exec.Pool.map p (fun _ -> inner ()) [| 0 |] in
          checkb
            (Printf.sprintf "nested job of a lone task met, %d domains" domains)
            true
            (Array.for_all (Array.for_all Fun.id) got)))
    [ 2; 4 ]

(* Two client domains map on one pool at once, each with nesting. *)
let test_two_clients () =
  let values = sequential_values () in
  each_pool (fun what p ->
      let client () = Domain.spawn (fun () -> pool_values p) in
      let a = client () and b = client () in
      let a = Domain.join a and b = Domain.join b in
      checkb ("two clients, " ^ what) true (a = values && b = values))

(* The shared pool runs every task on the domain that dispatched it:
   the main domain, two client domains at once, and the domains that
   run another pool's tasks. *)
let test_sequential_runs_on_caller () =
  let on_caller () =
    let self = Domain.self () in
    Exec.Pool.map Exec.Pool.sequential
      (fun x ->
        ignore (heavy x);
        Domain.self ())
      inputs
    |> Array.for_all (fun d -> d = self)
  in
  checkb "main domain" true (on_caller ());
  let a = Domain.spawn on_caller and b = Domain.spawn on_caller in
  checkb "two client domains" true (Domain.join a && Domain.join b);
  with_domains 4 (fun p ->
      checkb "inside another pool's tasks" true
        (Array.for_all Fun.id
           (Exec.Pool.map p (fun _ -> on_caller ()) (Array.init 16 Fun.id))))

(* A domain that helps a nested job is still in its outermost task, so
   its busy time counts once: the occupancy derived from the registry
   gauges the pool published stays within capacity. *)
let test_occupancy_nested () =
  let pool = "test_nested_occupancy" in
  Exec.Pool.with_pool ~name:pool ~domains:2 (fun p -> ignore (pool_values p));
  match Obs.Report.pool_occupancy ~pool (Obs.Metrics.snapshot Obs.Metrics.global) with
  | Some occ ->
      checkb (Printf.sprintf "occupancy %.3f in (0, 1.02]" occ) true
        (occ > 0.0 && occ <= 1.02)
  | None -> Alcotest.fail "no busy_s/up_s/domains gauges published"

(* Each label's jobs, tasks and wall time land in the registry under
   exec.pool.<pool>.<label>.*. *)
let test_stats_counters () =
  let pool = "test_stats" in
  Exec.Pool.with_pool ~name:pool ~domains:2 (fun p ->
      ignore (Exec.Pool.map ~label:"stage_a" p heavy inputs);
      ignore (Exec.Pool.map ~label:"stage_a" p heavy inputs);
      ignore (Exec.Pool.map ~label:"stage_b" p heavy inputs));
  let ms = Obs.Metrics.snapshot Obs.Metrics.global in
  let metric label suffix = Printf.sprintf "exec.pool.%s.%s.%s" pool label suffix in
  let labels =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:("exec.pool." ^ pool ^ ".") name
        && String.ends_with ~suffix:".calls" name)
      ms
  in
  checki "two labels" 2 (List.length labels);
  checkb "stage_a calls" true (Obs.Report.counter_of (metric "stage_a" "calls") ms = Some 2);
  checkb "stage_a tasks" true
    (Obs.Report.counter_of (metric "stage_a" "tasks") ms = Some (2 * Array.length inputs));
  checkb "stage_b calls" true (Obs.Report.counter_of (metric "stage_b" "calls") ms = Some 1);
  checkb "stage_a wall accumulates" true
    (match Obs.Report.gauge_of (metric "stage_a" "wall_s") ms with
    | Some w -> w >= 0.0
    | None -> false)

let test_montecarlo_pool_identical () =
  let tech = Layout.Tech.node90 in
  let env = Circuit.Delay_model.default_env tech in
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let config =
    {
      Sta.Montecarlo.trials = 24;
      sigma_global = 3.0;
      sigma_local = 1.5;
      mean_shift = 0.0;
      clock_period = 500.0;
    }
  in
  let seq = Sta.Montecarlo.run env n ~loads config (Stats.Rng.create 5) in
  let par =
    with_domains 4 (fun p ->
        Sta.Montecarlo.run ~pool:p env n ~loads config (Stats.Rng.create 5))
  in
  checkb "MC wns bit-identical" true (seq.Sta.Montecarlo.wns = par.Sta.Montecarlo.wns);
  checkb "MC delay bit-identical" true
    (seq.Sta.Montecarlo.critical_delay = par.Sta.Montecarlo.critical_delay)

(* Flow-level determinism: the full layout -> OPC -> litho -> CD ->
   STA pipeline lands on the same worst slack at 1 and 4 domains. *)
let flow_at domains =
  let c = Timing_opc.Flow.default_config () in
  let c =
    {
      c with
      Timing_opc.Flow.opc_config =
        { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 4 };
      slices = 5;
      domains;
    }
  in
  Timing_opc.Flow.run c (Circuit.Generator.c17 ())

let test_flow_determinism () =
  let a = flow_at 1 and b = flow_at 4 in
  Alcotest.(check (float 0.0))
    "worst slack identical at 1 and 4 domains" a.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns
    b.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns;
  checkb "per-gate CDs identical" true
    (List.map (fun (c : Cdex.Gate_cd.t) -> c.Cdex.Gate_cd.cds) a.Timing_opc.Flow.cds
    = List.map (fun (c : Cdex.Gate_cd.t) -> c.Cdex.Gate_cd.cds) b.Timing_opc.Flow.cds)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches oracle at 1/2/4 domains" `Quick
            test_map_matches_oracle;
          Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
          Alcotest.test_case "concat_map preserves order" `Quick test_concat_map_order;
          Alcotest.test_case "map_reduce reduction is ordered" `Quick
            test_map_reduce_matches_sequential_fold;
          Alcotest.test_case "empty and singleton inputs" `Quick test_empty_and_singleton;
          Alcotest.test_case "more domains than the runtime's limit" `Quick
            test_domain_limit;
          Alcotest.test_case "worker exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "per-label stats counters" `Quick test_stats_counters;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "three deep = sequential oracle" `Quick
            test_nested_matches_oracle;
          Alcotest.test_case "more tasks than domains" `Quick
            test_more_tasks_than_domains;
          Alcotest.test_case "exception at lowest index" `Quick test_nested_exception;
          Alcotest.test_case "lone task's job runs in parallel" `Quick
            test_lone_task_nested_parallel;
          Alcotest.test_case "two client domains at once" `Quick test_two_clients;
          Alcotest.test_case "shared pool runs on its caller" `Quick
            test_sequential_runs_on_caller;
          Alcotest.test_case "occupancy counts a domain once" `Quick
            test_occupancy_nested;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Monte-Carlo identical with pool" `Quick
            test_montecarlo_pool_identical;
          Alcotest.test_case "flow worst slack identical at 1 and 4 domains" `Slow
            test_flow_determinism;
        ] );
    ]
