(* The benchmark's own arithmetic and checks, kept apart from the
   measured program so test_calc.ml can drive them on synthetic
   inputs. *)

(* Linear interpolation between order statistics (numpy's default,
   R type 7): the median of an even count is the mean of the two
   middle samples. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Calc.percentile: no samples";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Calc.percentile: p outside [0, 1]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = percentile xs 0.5

let mean xs =
  if Array.length xs = 0 then invalid_arg "Calc.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* The p90 leaves at least ten samples beyond it only from 100
   samples on; below that the run reports no tail. *)
let p90 xs = if Array.length xs >= 100 then Some (percentile xs 0.9) else None

let throughput ~ops ~seconds =
  if not (seconds > 0.0) then invalid_arg "Calc.throughput: non-positive duration";
  float_of_int ops /. seconds

let failure_share ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Calc.failure_share: nothing attempted";
  if failed < 0 || failed > attempted then invalid_arg "Calc.failure_share: bad failure count";
  float_of_int failed /. float_of_int attempted

(* How much slower than the reference speed the host ran: the median
   reference sample over its nominal time.  A time divided by it, or a
   rate multiplied by it, is what a host at the reference speed would
   have measured. *)
let host_factor ~nominal_ms samples =
  if not (nominal_ms > 0.0) then invalid_arg "Calc.host_factor: non-positive nominal time";
  median samples /. nominal_ms

(* [a / b], 0 when nothing was counted: per-layer ratios of a layer
   the workload never reaches. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

type guard = { guard : string; ok : bool; detail : string }

(* In a closed loop with one client, ops/s is 1000 / mean op ms up to
   the loop's own bookkeeping.  A product far from 1000 means the
   timed ops do not account for the loop's wall time (ops of mixed
   classes reported from different windows, or a loop whose overhead
   is not the ops), so the numbers would not describe one thing. *)
let consistency ~ops_per_s ~mean_ms =
  let product = ops_per_s *. mean_ms in
  {
    guard = "throughput_consistency";
    ok = Float.abs (product -. 1000.0) <= 50.0;
    detail = Printf.sprintf "ops_per_s x mean_op_ms = %.1f (want 1000 +- 5%%)" product;
  }

(* The cost class a workload promises: tile-cache hits only (no
   convolution), or moves that keep the die box, the OPC tile grid and
   the tiles OPC corrects. *)
type expect = { no_misses : bool; moves_in_class : bool }

let any_class = { no_misses = false; moves_in_class = false }

let class_guards expect ~misses ~moves_kept =
  let check on guard ok detail = if on then [ { guard; ok; detail } ] else [] in
  check expect.no_misses "no_cache_misses" (misses = 0)
    (Printf.sprintf "%d tile-cache misses during the ops (want 0)" misses)
  @ check expect.moves_in_class "moves_in_class"
      (List.for_all Fun.id moves_kept)
      (Printf.sprintf "%d of %d moves keep the die box and OPC tiles"
         (List.length (List.filter Fun.id moves_kept))
         (List.length moves_kept))

(* Variables that change the measured program without any change to
   its code: [POTX_CACHE_MB] and [POTX_ENGINE] are read when the
   library initialises, before any config is applied, and
   [OCAMLRUNPARAM] retunes the runtime. *)
let pinned_env_violations env =
  List.filter_map
    (fun (k, _) ->
      if String.equal k "OCAMLRUNPARAM" || String.starts_with ~prefix:"POTX_" k then Some k
      else None)
    env

let env_pairs entries =
  Array.to_list entries
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> (kv, ""))

(* The result object the benchmark prints as its last line.  Values
   keep every digit ([%.17g]); a non-finite value is a bug in the
   benchmark, not a measurement. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then
      invalid_arg (Printf.sprintf "Calc.result_line: %s is not finite" name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
