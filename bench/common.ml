(* Shared fixtures for the experiment harness: one calibrated litho
   model, one flow config, and memoised flow runs per benchmark so
   experiments that look at the same circuit reuse the work. *)

let seed = 2005 (* DAC'05 *)

let tech = Layout.Tech.node90

let quick = ref false

(* Worker domains from --domains=N (default sequential).  Every
   engine below guarantees bit-identical results for any value, so the
   experiment tables never depend on this. *)
let domains = ref 1

let shared_pool =
  lazy
    (if !domains > 1 then Some (Exec.Pool.create ~name:"bench" ~domains:!domains ())
     else None)

let pool () = Lazy.force shared_pool

let config () =
  let c = Timing_opc.Flow.default_config () in
  let c = { c with Timing_opc.Flow.seed; domains = !domains } in
  if !quick then
    { c with
      Timing_opc.Flow.opc_config =
        { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 4 };
      slices = 5 }
  else c

let litho_model () = Timing_opc.Flow.litho_model (config ())

let benchmarks () =
  let rng = Stats.Rng.create seed in
  let all = Circuit.Generator.benchmarks rng in
  if !quick then
    List.filter (fun (n, _) -> n = "c17" || n = "adder16") all
  else all

let run_cache : (string, Timing_opc.Flow.run) Hashtbl.t = Hashtbl.create 8

let flow_run name =
  match Hashtbl.find_opt run_cache name with
  | Some r -> r
  | None ->
      let netlist =
        match List.assoc_opt name (benchmarks ()) with
        | Some n -> n
        | None -> invalid_arg (Printf.sprintf "unknown benchmark %s" name)
      in
      Format.printf "  [flow] running %s (%d gates)...@." name
        (Circuit.Netlist.num_gates netlist);
      let r = Timing_opc.Flow.run (config ()) netlist in
      Hashtbl.replace run_cache name r;
      r

(* A mixed-cell layout block (not netlist-driven) for the pure-litho
   experiments; memoised per OPC style. *)
let block_cache : (string, Layout.Chip.t) Hashtbl.t = Hashtbl.create 4

let layout_block ~n =
  let key = Printf.sprintf "block%d" n in
  match Hashtbl.find_opt block_cache key with
  | Some c -> c
  | None ->
      let rng = Stats.Rng.create seed in
      let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n in
      Hashtbl.replace block_cache key chip;
      chip

let mask_cache : (string, Opc.Mask.t * Opc.Model_opc.stats) Hashtbl.t = Hashtbl.create 4

let mask_for chip ~style_name =
  let cache_key =
    Printf.sprintf "%s:%d" style_name (Layout.Chip.num_instances chip)
  in
  match Hashtbl.find_opt mask_cache cache_key with
  | Some m -> m
  | None ->
      let m = litho_model () in
      let c = config () in
      let style =
        match style_name with
        | "none" -> Opc.Chip_opc.None_
        | "rule" -> Opc.Chip_opc.Rule (Opc.Rule_opc.default_recipe tech)
        | "model" -> Opc.Chip_opc.Model c.Timing_opc.Flow.opc_config
        | s -> invalid_arg ("unknown OPC style " ^ s)
      in
      Format.printf "  [opc] %s correction...@." style_name;
      let result = Opc.Chip_opc.correct m style chip ~tile:c.Timing_opc.Flow.tile in
      Hashtbl.replace mask_cache cache_key result;
      result

let extract chip mask condition =
  let m = litho_model () in
  let c = config () in
  Cdex.Extract.extract ?pool:(pool ()) m condition ~mask:(Opc.Mask.source mask)
    ~gates:(Layout.Chip.gates chip) ~slices:c.Timing_opc.Flow.slices
    ~tile:c.Timing_opc.Flow.tile ()

let ppf = Format.std_formatter

let section title = Format.printf "@.######## %s ########@." title
