(* End-to-end and per-layer benchmark of the post-OPC timing flow.

     python3 perfbench/run.py --workload serve_dose --seed 2005 --seconds 30 --trace 0

   One process runs one workload: a closed loop with one client that
   opens a session (a full cold flow, as [potx run] makes) and sends it
   requests in-process, as the [potx serve] loop does.  With
   [--trace 0] the last stdout line carries the end-to-end metrics, at
   the reference speed of reference.ml; with [--trace 1] the per-layer
   ones.  The line before it records the host, the input, the wall
   values and the checks.  NOTES.md says why each workload exists and
   what it costs. *)

module Flow = Timing_opc.Flow
module Session = Timing_opc_serve.Session
module Protocol = Timing_opc_serve.Protocol

let default_seed = 2005

let reference_file = "perfbench/reference_digests.txt"

(* ---- the input ---------------------------------------------------- *)

(* Every field a workload relies on is set here, not inherited:
   [default_config] reads [POTX_SHARD], [POTX_CACHE] and [POTX_ENGINE]
   from the environment. *)
let config ~seed ~domains =
  {
    (Flow.default_config ()) with
    Flow.opc_style = Flow.Model_opc;
    seed;
    domains;
    shard = 1;
    cache = true;
    engine = Litho.Aerial.Direct;
    retry = Fault.no_retry;
    checkpoint = None;
    dist = None;
  }

(* The default seed's chip sets the size class: one 19.25 um row with
   58 gate sites, whose poly lies in three of its four 6 um OPC tile
   columns (model OPC corrects only tiles that hold a polygon centre).
   Another seed draws netlists and placements until one lands in the
   same class, so seeds vary the cells and their neighbourhoods but not
   the amount of work, and the flow's rasters exceed the tile cache on
   every seed. *)
let class_die_width = 19250

let class_gate_sites = 58

let class_opc_tiles = 3

let opc_tiles (cfg : Flow.config) chip =
  let centres =
    Layout.Chip.flatten_layer chip Layout.Layer.Poly
    |> List.map (fun p -> Geometry.Rect.center (Geometry.Polygon.bbox p))
  in
  Opc.Chip_opc.tiles (Opc.Chip_opc.plan (Litho.Model.create ()) chip ~tile:cfg.Flow.tile)
  |> List.filter (fun t -> List.exists (Geometry.Rect.contains_point t) centres)
  |> List.length

type design = {
  design_seed : int;
  netlist : Circuit.Netlist.t;
  chip : Layout.Chip.t;
  die : Geometry.Rect.t;
}

let design seed =
  let draws = Stats.Rng.create seed in
  let rec search candidate tries =
    let netlist =
      Circuit.Generator.random_logic (Stats.Rng.create candidate) ~levels:2 ~width:6
    in
    let cfg = config ~seed:candidate ~domains:1 in
    let chip = Flow.place cfg netlist in
    match Layout.Chip.die chip with
    | Some die
      when Geometry.Rect.width die = class_die_width
           && List.length (Layout.Chip.gates chip) = class_gate_sites
           && opc_tiles cfg chip = class_opc_tiles ->
        { design_seed = candidate; netlist; chip; die }
    | _ when tries >= 100_000 -> failwith "no design in the size class"
    | _ -> search (Stats.Rng.int draws 1_000_000_000) (tries + 1)
  in
  search seed 0

(* The chip with one instance translated by [dx], as the [whatif] move
   verb builds it. *)
let moved_chip chip ~inst ~dx =
  let moved = Layout.Chip.create (Layout.Chip.tech chip) in
  List.iter
    (fun (i : Layout.Chip.instance) ->
      let p = i.Layout.Chip.placement in
      let placement =
        if String.equal i.Layout.Chip.iname inst then
          {
            p with
            Geometry.Transform.offset =
              Geometry.Point.add p.Geometry.Transform.offset (Geometry.Point.make dx 0);
          }
        else p
      in
      Layout.Chip.add moved ~iname:i.Layout.Chip.iname ~cell:i.Layout.Chip.cell placement)
    (Layout.Chip.instances chip);
  moved

(* A move stays in the workload's cost class when it keeps the die box
   (and with it the OPC tile grid) and the set of tiles OPC corrects. *)
let move_in_class (cfg : Flow.config) d ~inst ~dx =
  let chip = moved_chip d.chip ~inst ~dx in
  (match Layout.Chip.die chip with Some die -> Geometry.Rect.equal die d.die | None -> false)
  && opc_tiles cfg chip = class_opc_tiles

(* ---- workloads ---------------------------------------------------- *)

type kind = Serve_dose | Serve_move

type workload = {
  name : string;
  kind : kind;
  domains : int;
  nominal_op_s : float;
      (* about the median op on a 2-vCPU 2.0 GHz Xeon; [--seconds]
         divided by it fixes the op count before the loop starts *)
  cycle : int;  (* distinct ops in the script; op [i] runs entry [i mod cycle] *)
  expect : Calc.expect;
}

(* Two workloads: runs long enough to be steady on a shared 2-vCPU
   host leave no time for more within the benchmark's time budget
   (NOTES.md). *)
let workloads =
  [
    { name = "serve_dose"; kind = Serve_dose; domains = 1; nominal_op_s = 0.011;
      cycle = 100; expect = { Calc.any_class with no_misses = true } };
    (* Its ops took 5.7-11 s on that host.  7.5 s gives a 30-s run 4
       ops rather than 3: the median of 3 ops was unsteady. *)
    { name = "serve_move"; kind = Serve_move; domains = 2; nominal_op_s = 7.5;
      cycle = 16; expect = { Calc.any_class with moves_in_class = true } };
  ]

let move_nm = 340

(* A seeded permutation of [values], first [n] kept. *)
let draw rng values n =
  let a = Array.of_list values in
  Stats.Rng.shuffle rng a;
  Array.to_list (Array.sub a 0 (min n (Array.length a)))

(* The request script of a workload.  [serve_dose] asks for doses on
   a grid (exact on the wire), never the session's own, at the silicon
   defocus, so every extraction window is already in the tile cache
   (dose is not in the key).  [serve_move] translates a logic instance
   by a move that keeps the chip in its size class. *)
let script w (cfg : Flow.config) d rng =
  let silicon = cfg.Flow.condition in
  match w.kind with
  | Serve_dose ->
      let doses =
        List.init 801 (fun k -> 0.98 +. (0.0001 *. float_of_int k))
        |> List.filter (fun dose -> Float.abs (dose -. silicon.Litho.Condition.dose) > 0.00005)
      in
      draw rng doses w.cycle
      |> List.map (fun dose ->
             Protocol.Corner { dose; defocus = silicon.Litho.Condition.defocus; spread = None })
  | Serve_move ->
      let interior =
        Array.to_list d.netlist.Circuit.Netlist.gates
        |> List.map (fun (g : Circuit.Netlist.gate) -> g.Circuit.Netlist.gname)
        |> List.concat_map (fun inst -> [ (inst, -move_nm); (inst, move_nm) ])
        |> List.filter (fun (inst, dx) -> move_in_class cfg d ~inst ~dx)
        |> Array.of_list
      in
      if Array.length interior = 0 then failwith "no interior move";
      List.init w.cycle (fun _ ->
          let gate, dx = Stats.Rng.choose rng interior in
          Protocol.Whatif { gate; change = Protocol.Move { dx; dy = 0 } })

(* ---- output checks ------------------------------------------------ *)

(* Reference digests of the default seed's op outputs (report or reply
   bytes), one "workload index md5" line each: the program's own
   goldens, a regression check rather than an independent oracle. *)
let load_references () =
  let table = Hashtbl.create 256 in
  (match In_channel.with_open_text reference_file In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ name; index; md5 ] when name <> "" && name.[0] <> '#' ->
                 Hashtbl.replace table (name, int_of_string index) md5
             | _ -> ())
  | exception Sys_error _ -> ());
  table

let reply_ok line =
  match Protocol.parse_response line with
  | Ok { Protocol.reply = Ok _; _ } -> Ok ()
  | Ok { Protocol.reply = Error e; _ } -> Error ("error reply: " ^ e)
  | Error e -> Error ("unparsable reply: " ^ e)

(* ---- measurement -------------------------------------------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

type sample = { ms : float; ok : bool }

type pass = {
  first : int;  (* script index of the pass's first op *)
  samples : sample array;
  loop_s : float;  (* first op start to last op end, less reference samples *)
  misses : int;
  simulations : int;
  failures : string list;
  digests : (int * string) list;  (* script index, md5 of the output *)
}

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Registry values as floats, for diffing at op boundaries. *)
let registry () =
  let t = Hashtbl.create 256 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace t k
        (match v with
        | Obs.Metrics.Counter n -> float_of_int n
        | Obs.Metrics.Gauge g -> g
        | Obs.Metrics.Histogram h -> float_of_int h.Obs.Metrics.count))
    (Obs.Metrics.snapshot Obs.Metrics.global);
  t

let gc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* What a traced pass accumulates around each op, beside the spans. *)
type layer_acc = {
  delta : (string, float) Hashtbl.t;
  mutable alloc_w : float;
  mutable majors : int;
}

(* Run [ops] ops of the script.  [op i] returns the op's output bytes;
   [check i out] decides whether it is correct.  Reference samples
   follow each op, outside its timing.  With [acc] every op runs under
   a [bench.op] span and registry and GC readings are diffed at its
   boundaries. *)
let run_pass ?acc ~reference ~first ~ops ~op ~check ~cycle () =
  let misses0 = counter "litho.cache.misses" in
  let simulations0 = counter "litho.simulations" in
  let failures = ref [] and digests = Hashtbl.create 16 in
  let start = ref 0.0 and reference_s = ref 0.0 in
  let samples =
    Array.init ops (fun k ->
        let i = first + k in
        if k = 0 then start := now ();
        let body () =
          match acc with
          | None -> timed (fun () -> op i)
          | Some a ->
              let r0 = registry () and g0 = Gc.quick_stat () in
              let result =
                Obs.Span.with_ ~name:"bench.op" (fun () -> timed (fun () -> op i))
              in
              let r1 = registry () and g1 = Gc.quick_stat () in
              Hashtbl.iter
                (fun k v ->
                  let v0 = Option.value (Hashtbl.find_opt r0 k) ~default:0.0 in
                  let prev = Option.value (Hashtbl.find_opt a.delta k) ~default:0.0 in
                  Hashtbl.replace a.delta k (prev +. (v -. v0)))
                r1;
              a.alloc_w <- a.alloc_w +. (gc_words g1 -. gc_words g0);
              a.majors <- a.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
              result
        in
        let sample =
          match body () with
          | out, s ->
              let md5 = Digest.to_hex (Digest.string out) in
              Hashtbl.replace digests (i mod cycle) md5;
              let ok =
                match check i out with
                | Ok () -> true
                | Error e ->
                    failures := Printf.sprintf "op %d: %s" i e :: !failures;
                    false
              in
              { ms = s *. 1e3; ok }
          | exception e ->
              failures := Printf.sprintf "op %d: %s" i (Printexc.to_string e) :: !failures;
              { ms = 0.0; ok = false }
        in
        let (), s = timed (fun () -> Reference.follow reference (sample.ms /. 1e3)) in
        reference_s := !reference_s +. s;
        sample)
  in
  {
    first;
    samples;
    loop_s = now () -. !start -. !reference_s;
    misses = counter "litho.cache.misses" - misses0;
    simulations = counter "litho.simulations" - simulations0;
    failures = List.rev !failures;
    digests = Hashtbl.fold (fun k v acc -> (k, v) :: acc) digests [] |> List.sort compare;
  }

let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> loop ()
      in
      loop ())

(* ---- per-layer metrics -------------------------------------------- *)

(* Spans recorded on a pool worker domain have no parent (nesting is
   per domain), so each event is given to the op whose [bench.op]
   window contains its start. *)
let in_op_windows events =
  let windows =
    List.filter_map
      (fun (e : Obs.Span.event) ->
        if String.equal e.Obs.Span.name "bench.op" then
          Some (e.Obs.Span.start_s, e.Obs.Span.start_s +. e.Obs.Span.wall_s)
        else None)
      events
    |> Array.of_list
  in
  Array.sort compare windows;
  let inside t =
    (* last window starting at or before [t] *)
    let rec search lo hi =
      if lo >= hi then lo - 1
      else
        let mid = (lo + hi) / 2 in
        if fst windows.(mid) <= t then search (mid + 1) hi else search lo mid
    in
    let k = search 0 (Array.length windows) in
    k >= 0 && t <= snd windows.(k)
  in
  List.filter (fun (e : Obs.Span.event) -> inside e.Obs.Span.start_s) events

let mib = 1024.0 *. 1024.0

let per_layer w ~ops ~setup_rows ~rows ~(acc : layer_acc) ~op_ms ~overhead_pct =
  let n = float_of_int ops in
  let find rows name = List.find_opt (fun (r : Obs.Profile.row) -> String.equal r.Obs.Profile.name name) rows in
  let get rows name f = match find rows name with Some r -> f r | None -> 0.0 in
  let count name = get rows name (fun r -> float_of_int r.Obs.Profile.count) in
  let wall_ms name = get rows name (fun r -> r.Obs.Profile.wall_s *. 1e3) in
  let self_ms name = get rows name (fun r -> r.Obs.Profile.self_wall_s *. 1e3) in
  let delta name = Option.value (Hashtbl.find_opt acc.delta name) ~default:0.0 in
  let delta_matching ~prefix ~suffix =
    Hashtbl.fold
      (fun k v sum ->
        if String.starts_with ~prefix k && String.ends_with ~suffix k then sum +. v else sum)
      acc.delta 0.0
  in
  (* Flow stages run in the session's set-up flow (and in any op that
     reruns the flow): report them per flow run, wherever it ran. *)
  let per_flow_run name =
    let both f = get setup_rows name f +. get rows name f in
    Calc.ratio
      (both (fun r -> r.Obs.Profile.wall_s *. 1e3))
      (get setup_rows "flow.run" (fun r -> float_of_int r.Obs.Profile.count)
      +. count "flow.run")
  in
  let verb_ms =
    List.fold_left
      (fun sum (r : Obs.Profile.row) ->
        if String.starts_with ~prefix:"serve." r.Obs.Profile.name then
          sum +. (r.Obs.Profile.wall_s *. 1e3)
        else sum)
      0.0 rows
  in
  let hits = delta "litho.cache.hits" and misses = delta "litho.cache.misses" in
  let dirty = delta "opc.dirty_tiles" and clean = delta "opc.clean_tiles" in
  let busy_s = delta_matching ~prefix:"exec.pool." ~suffix:".busy_s" in
  let ms = "ms" and count_u = "count" in
  [
    ("litho.simulate.calls", delta "litho.simulations" /. n, count_u);
    ("litho.simulate.self_ms", self_ms "litho.simulate" /. n, ms);
    ("litho.simulate.ms_per_call", Calc.ratio (wall_ms "litho.simulate") (count "litho.simulate"), ms);
    ( "litho.simulate.alloc_mb",
      get rows "litho.simulate" (fun r -> r.Obs.Profile.alloc_w) *. 8.0 /. 1e6 /. n,
      "MB" );
    ("litho.cache.hits", hits /. n, count_u);
    ("litho.cache.misses", misses /. n, count_u);
    ("litho.cache.evictions", delta "litho.cache.evictions" /. n, count_u);
    ("litho.cache.hit_ratio", Calc.ratio hits (hits +. misses), "ratio");
    ( "litho.cache.resident_mib",
      float_of_int (Litho.Tile_cache.bytes Litho.Tile_cache.global) /. mib,
      "MiB" );
    ("opc.correct.calls", count "opc.correct" /. n, count_u);
    ("opc.correct.self_ms", self_ms "opc.correct" /. n, ms);
    ("opc.iterations", delta "opc.iterations" /. n, count_u);
    ("opc.epe_sites", delta "opc.epe_sites" /. n, count_u);
    ("opc.dirty_tiles", dirty /. n, count_u);
    ("opc.clean_tiles", clean /. n, count_u);
    ("opc.clean_ratio", Calc.ratio clean (clean +. dirty), "ratio");
    ("flow.litho_model.ms", per_flow_run "flow.litho_model", ms);
    ("flow.place.ms", per_flow_run "flow.place", ms);
    ("flow.opc.ms", per_flow_run "flow.opc", ms);
    ("flow.cdex.ms", per_flow_run "flow.cdex", ms);
    ("flow.reopc_chip.ms", wall_ms "flow.reopc_chip" /. n, ms);
    ("flow.extract_at.ms", wall_ms "flow.extract_at" /. n, ms);
    ("cdex.extract.self_ms", self_ms "cdex.extract" /. n, ms);
    ("cdex.tiles", delta "cdex.tiles" /. n, count_u);
    ("cdex.gates", delta "cdex.gates" /. n, count_u);
    ("annotate.build.ms", wall_ms "annotate.build" /. n, ms);
    ("sta.analyze.calls", delta "sta.analyses" /. n, count_u);
    ("sta.analyze.ms", wall_ms "sta.analyze" /. n, ms);
    ("sta.incremental.reevaluated", delta "sta.incremental.reevaluated" /. n, count_u);
    ("sta.incremental.ms", wall_ms "sta.incremental" /. n, ms);
    ("serve.verb.ms", verb_ms /. n, ms);
    ("serve.protocol.ms", (if verb_ms > 0.0 then (op_ms -. verb_ms) /. n else 0.0), ms);
    ("serve.errors", delta "serve.errors", count_u);
    ("exec.tasks", delta_matching ~prefix:"exec.pool." ~suffix:".tasks" /. n, count_u);
    ( "exec.occupancy",
      Calc.ratio busy_s (op_ms /. 1e3 *. float_of_int w.domains),
      "ratio" );
    ("gc.alloc_mb", acc.alloc_w *. 8.0 /. 1e6 /. n, "MB");
    ("gc.major_collections", float_of_int acc.majors /. n, count_u);
    ( "gc.heap_top_mib",
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. mib,
      "MiB" );
    ("trace.overhead_pct", overhead_pct, "%");
  ]

(* ---- the run ------------------------------------------------------ *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  record : bool;
}

let completed p = Array.fold_left (fun n s -> if s.ok then n + 1 else n) 0 p.samples

let median_ms samples =
  let ok = List.filter (fun s -> s.ok) (Array.to_list samples) in
  let use = if ok = [] then Array.to_list samples else ok in
  Calc.median (Array.of_list (List.map (fun s -> s.ms) use))

let run args =
  let w = args.workload in
  let d = design args.seed in
  let cfg = config ~seed:d.design_seed ~domains:w.domains in
  let rng = Stats.Rng.split (Stats.Rng.create args.seed) in
  let script = Array.of_list (script w cfg d rng) in
  let ops = max 1 (int_of_float (Float.round (args.seconds /. w.nominal_op_s))) in
  let references =
    if args.seed = default_seed && not args.record then Some (load_references ()) else None
  in
  let check_digest i out =
    match references with
    | None -> Ok ()
    | Some table -> (
        match Hashtbl.find_opt table (w.name, i mod w.cycle) with
        | None -> Error "no reference digest for this op"
        | Some md5 when String.equal md5 (Digest.to_hex (Digest.string out)) -> Ok ()
        | Some md5 -> Error ("output digest differs from reference " ^ md5))
  in
  let reference = Reference.create () in
  if args.trace then Obs.Span.enable ();
  (* set-up: work done before the first op, one cold flow *)
  let session, setup_s = timed (fun () -> Session.create ~bench:"perfbench" cfg d.netlist) in
  let setup_rows = if args.trace then Obs.Profile.aggregate (Obs.Span.events ()) else [] in
  Obs.Span.disable ();
  Reference.follow reference setup_s;
  let lines = Array.mapi (fun id r -> Protocol.request_to_string ~id r) script in
  let op i =
    Protocol.response_to_string (Session.handle_line session lines.(i mod Array.length lines))
  in
  let check i out = Result.bind (reply_ok out) (fun () -> check_digest i out) in
  let moves_kept i =
    match script.(i mod Array.length script) with
    | Protocol.Whatif { gate; change = Protocol.Move { dx; _ } } ->
        move_in_class cfg d ~inst:gate ~dx
    | _ -> true
  in
  (* The traced pass continues the script where the untraced one
     stopped: a move the untraced pass made may still have tiles in
     the cache. *)
  let pass ?acc first =
    run_pass ?acc ~reference ~first ~ops ~op ~check ~cycle:w.cycle ()
  in
  let a = pass 0 in
  let traced =
    if not args.trace then None
    else begin
      let acc = { delta = Hashtbl.create 256; alloc_w = 0.0; majors = 0 } in
      Obs.Span.enable ();
      let b = pass ~acc ops in
      Obs.Span.disable ();
      Some (b, acc, in_op_windows (Obs.Span.events ()))
    end
  in
  Session.close session;
  (a, traced, setup_s, setup_rows, d, ops, moves_kept, Reference.samples reference)

let host_info args w d ops =
  [
    ("workload", Obs.Json.Str w.name);
    ("seed", Obs.Json.Num (float_of_int args.seed));
    ("design_seed", Obs.Json.Num (float_of_int d.design_seed));
    ("cells", Obs.Json.Num (float_of_int (Circuit.Netlist.num_gates d.netlist)));
    ("gate_sites", Obs.Json.Num (float_of_int (List.length (Layout.Chip.gates d.chip))));
    ("die_nm", Obs.Json.Str (Geometry.Rect.to_string d.die));
    ("domains", Obs.Json.Num (float_of_int w.domains));
    ("ops", Obs.Json.Num (float_of_int ops));
    ("trace", Obs.Json.Bool args.trace);
    ("nproc", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Obs.Json.Str Sys.ocaml_version);
  ]

let main args =
  let w = args.workload in
  let a, traced, setup_s, setup_rows, d, ops, moves_kept, reference_ms = run args in
  if args.record then begin
    List.iter (fun (i, md5) -> Printf.printf "%s %d %s\n" w.name i md5) a.digests;
    exit 0
  end;
  let passes = a :: (match traced with Some (b, _, _) -> [ b ] | None -> []) in
  let attempted = List.fold_left (fun n p -> n + Array.length p.samples) 0 passes in
  let failures = List.concat_map (fun p -> p.failures) passes in
  let failed = List.length failures in
  let guards =
    List.concat_map
      (fun p ->
        Calc.consistency
          ~ops_per_s:(Calc.throughput ~ops:(completed p) ~seconds:p.loop_s)
          ~mean_ms:(Calc.mean (Array.map (fun s -> s.ms) p.samples))
        :: Calc.class_guards w.expect ~misses:p.misses
             ~moves_kept:(List.init ops (fun k -> moves_kept (p.first + k))))
      passes
  in
  let correct = failed = 0 && List.for_all (fun g -> g.Calc.ok) guards in
  (* End-to-end times are reported at the reference speed (see
     reference.ml); the wall values are on the info line. *)
  let factor = Calc.host_factor ~nominal_ms:Reference.nominal_ms reference_ms in
  let wall_p50 = median_ms a.samples in
  let wall_ops_per_s = Calc.throughput ~ops:(completed a) ~seconds:a.loop_s in
  let wall_p90 = Calc.p90 (Array.map (fun s -> s.ms) a.samples) in
  let num x = Obs.Json.Num x in
  let info =
    host_info args w d ops
    @ [
        ("host_factor", num factor);
        ("reference_samples", num (float_of_int (Array.length reference_ms)));
        ( "wall",
          Obs.Json.Obj
            [
              ("setup_s", num setup_s);
              ("op_p50_ms", num wall_p50);
              ("op_p90_ms", Option.fold ~none:Obs.Json.Null ~some:num wall_p90);
              ("ops_per_s", num wall_ops_per_s);
            ] );
        ( "op_p90_ms",
          Option.fold ~none:Obs.Json.Null ~some:(fun v -> num (v /. factor)) wall_p90 );
        ("simulations_per_op", Obs.Json.Num (float_of_int a.simulations /. float_of_int ops));
        ("failure_share", Obs.Json.Num (Calc.failure_share ~attempted ~failed));
        ( "guards",
          Obs.Json.Arr
            (List.map
               (fun g ->
                 Obs.Json.Obj
                   [
                     ("guard", Obs.Json.Str g.Calc.guard);
                     ("ok", Obs.Json.Bool g.Calc.ok);
                     ("detail", Obs.Json.Str g.Calc.detail);
                   ])
               guards) );
        ( "failures",
          Obs.Json.Arr
            (List.filteri (fun i _ -> i < 5) failures
            |> List.map (fun f -> Obs.Json.Str f)) );
      ]
  in
  print_endline (Obs.Json.to_string (Obs.Json.Obj [ ("perfbench", Obs.Json.Obj info) ]));
  let metrics =
    match traced with
    | None ->
        [
          ("setup_s", setup_s /. factor, "s");
          ("op_p50_ms", wall_p50 /. factor, "ms");
          ("ops_per_s", wall_ops_per_s *. factor, "1/s");
          ("peak_rss_mb", peak_rss_mib (), "MiB");
        ]
    | Some (b, acc, events) ->
        let overhead_pct = ((median_ms b.samples /. median_ms a.samples) -. 1.0) *. 100.0 in
        per_layer w ~ops ~setup_rows ~rows:(Obs.Profile.aggregate events) ~acc
          ~op_ms:(Array.fold_left (fun t s -> t +. s.ms) 0.0 b.samples)
          ~overhead_pct
  in
  print_endline (Calc.result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30.0 in
  let trace = ref 0 and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads below");
      ("--seed", Arg.Set_int seed, "N input seed (default 2005)");
      ("--seconds", Arg.Set_float seconds, "S measured time; fixes the op count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--record", Arg.Set record, " print the default seed's reference digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    ("perfbench: workloads "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (match Calc.pinned_env_violations (Calc.env_pairs (Unix.environment ())) with
  | [] -> ()
  | vars -> fail ("refusing to run with " ^ String.concat ", " vars ^ " set"));
  let workload =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  if !record && !seed <> default_seed then fail "--record takes the default seed";
  main { workload; seed = !seed; seconds = !seconds; trace = !trace = 1; record = !record }
