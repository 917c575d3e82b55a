(* potx — post-OPC timing extraction, the command-line driver.

     potx run --bench adder16 --opc model
     potx cells
     potx litho
     potx drc --cells 40 --seed 7
     potx bench --list                       (experiment names live in bench/main.exe) *)

open Cmdliner

let bench_names = List.map fst (Circuit.Generator.benchmarks (Stats.Rng.create 0))

(* [name] is one of [bench_names]: --bench only accepts those. *)
let netlist_of_name seed name =
  List.assoc name (Circuit.Generator.benchmarks (Stats.Rng.create seed))

let opc_styles =
  Timing_opc.Flow.
    [ ("none", No_opc); ("rule", Rule_opc); ("model", Model_opc) ]

(* A flag taking one of [names]; its value is the name itself. *)
let name_enum names = Arg.enum (List.map (fun n -> (n, n)) names)

(* An empty --trace/--metrics/--profile value means off. *)
let sink flag = if flag = "" then None else Some flag

(* With no sink, tracing stays disabled and the run is byte-identical
   to an uninstrumented build's output. *)
let with_obs ?(profile = "") ~trace ~metrics f =
  let trace = sink trace in
  let metrics = sink metrics in
  let profile = sink profile in
  Option.iter Obs.Span.stream_to trace;
  (* --profile needs the span log but no JSONL sink; when --trace
     already enabled (and cleared) the log, piggyback on it rather
     than clearing the spans it is about to report. *)
  if profile <> None && trace = None then Obs.Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | None -> ()
      | Some path ->
          Format.eprintf "%a@." Obs.Profile.pp_tree (Obs.Span.events ());
          Obs.Span.disable ();
          Format.eprintf "wrote trace %s@." path);
      (match profile with
      | None -> ()
      | Some path ->
          (* The span log survives disable (it clears on enable only),
             so this also works after the --trace branch above. *)
          let evs = Obs.Span.events () in
          Obs.Span.disable ();
          Obs.Profile.write_chrome_trace path evs;
          Format.eprintf "%a@." Obs.Profile.pp_table evs;
          Format.eprintf "wrote profile %s (%d spans)@." path (List.length evs));
      match metrics with
      | None -> ()
      | Some path ->
          Obs.Metrics.save_jsonl_file path Obs.Metrics.global;
          Format.eprintf "wrote metrics %s@." path)
    f

(* ---- run / serve ---- *)

(* The flow config shared by the one-shot run and the resident
   service; both hand it to Timing_opc_serve.Session, which runs the
   flow once and keeps the result warm.  Domain counts <= 0 clamp to
   1. *)
let flow_config ~opc ~seed ~dose ~defocus ~domains ~no_cache ~checkpoint_dir
    ~resume () =
  let base = Timing_opc.Flow.default_config () in
  { base with
    Timing_opc.Flow.seed;
    opc_style = List.assoc opc opc_styles;
    condition = Litho.Condition.make ~dose ~defocus;
    domains = max 1 domains;
    cache = not no_cache;
    checkpoint =
      (if checkpoint_dir = "" then None
       else Some (Timing_opc.Checkpoint.create ~dir:checkpoint_dir ~resume)) }

let with_session ~bench config f =
  let netlist = netlist_of_name config.Timing_opc.Flow.seed bench in
  let session = Timing_opc_serve.Session.create ~bench config netlist in
  Fun.protect
    ~finally:(fun () -> Timing_opc_serve.Session.close session)
    (fun () -> f session)

let run_flow bench opc seed dose defocus spread report selective ssta
    domains no_cache checkpoint_dir resume trace metrics profile =
  with_obs ~profile ~trace ~metrics @@ fun () ->
  let config =
    flow_config ~opc ~seed ~dose ~defocus ~domains ~no_cache ~checkpoint_dir
      ~resume ()
  in
  Format.printf "flow: %s, OPC=%s, silicon %a, seed %d, domains %d@." bench opc
    Litho.Condition.pp config.Timing_opc.Flow.condition seed
    config.Timing_opc.Flow.domains;
  with_session ~bench config @@ fun session ->
  Timing_opc_serve.Session.print_report Format.std_formatter session ~spread
    ~report ~selective ~ssta

let serve_flow bench opc seed dose defocus domains no_cache trace metrics
    profile =
  with_obs ~profile ~trace ~metrics @@ fun () ->
  let config =
    flow_config ~opc ~seed ~dose ~defocus ~domains ~no_cache ~checkpoint_dir:""
      ~resume:false ()
  in
  (* Diagnostics go to stderr: in stdio mode stdout carries nothing
     but response lines (the golden script test compares its bytes). *)
  Format.eprintf "serve: %s, OPC=%s, silicon %a, seed %d, domains %d@." bench
    opc Litho.Condition.pp config.Timing_opc.Flow.condition seed
    config.Timing_opc.Flow.domains;
  with_session ~bench config @@ fun session ->
  Format.eprintf "ready@.";
  Timing_opc_serve.Server.serve_stdio session

let bench_arg =
  Arg.(
    value
    & opt (name_enum bench_names) "c17"
    & info [ "bench"; "b" ]
        ~doc:("Benchmark netlist: " ^ doc_alts bench_names ^ "."))

let opc_arg =
  Arg.(
    value
    & opt (name_enum (List.map fst opc_styles)) "model"
    & info [ "opc" ] ~doc:"OPC style: none, rule or model.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Placement/noise seed.")

(* A finite float flag value that must satisfy [ok]; any other is a
   usage error, with the message [error s] when it is finite. *)
let checked_float ?(ok = fun _ -> true) ?(error = fun _ -> "") () =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when not (Float.is_finite v) ->
        Error (`Msg (Printf.sprintf "%s is not a finite number" s))
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (error s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let dose_arg =
  Arg.(
    value
    & opt
        (checked_float ~ok:(fun v -> v > 0.0)
           ~error:(Printf.sprintf "dose %s is not positive") ())
        1.02
    & info [ "dose" ] ~doc:"Silicon exposure dose (1.0 nominal); positive and finite.")

let defocus_arg =
  let bound = Litho.Condition.max_defocus in
  let defocus =
    checked_float
      ~ok:(fun v -> Float.abs v <= bound)
      ~error:(fun s ->
        Printf.sprintf "defocus %s nm is beyond the %g nm the optical model is built for" s
          bound)
      ()
  in
  Arg.(
    value & opt defocus 70.0
    & info [ "defocus" ]
        ~doc:
          (Printf.sprintf
             "Silicon defocus, nm; finite and at most %g in magnitude, the \
              defocus the optical model is built for." bound))

(* The corner views move every gate to drawn +- spread, so a spread at
   or beyond the drawn gate length leaves a non-positive channel. *)
let spread_arg =
  let gate_length =
    float_of_int
      (Timing_opc.Flow.default_config ()).Timing_opc.Flow.tech.Layout.Tech.gate_length
  in
  let spread =
    checked_float
      ~ok:(fun v -> v >= 0.0 && v < gate_length)
      ~error:(fun s ->
        Printf.sprintf "spread %s nm is outside [0, %g), the drawn gate length" s gate_length)
      ()
  in
  Arg.(
    value
    & opt spread 8.0
    & info [ "spread" ]
        ~doc:"Corner CD spread, nm; at least 0 and below the drawn gate length.")

let report_arg =
  Arg.(value & opt int 0 & info [ "report" ] ~doc:"Print the top-N critical paths.")

let selective_arg =
  Arg.(
    value & flag
    & info [ "selective" ]
        ~doc:
          "After the full flow, re-run OPC selectively on the critical gate \
           sites (slack within 5 ps of the worst path) with rule bias \
           elsewhere — the paper's DFM feedback loop — and print the \
           selective timing view.")

let ssta_arg =
  Arg.(
    value & flag
    & info [ "ssta" ]
        ~doc:
          "Append the statistical-timing section: re-measure the chip's CDs \
           over a process window, fit the per-gate channel-length \
           distribution (global + independent components), propagate \
           first-order canonical delay forms through the timing graph \
           (analytic add, Clark's-approximation max) and print per-endpoint \
           slack distributions, criticality probabilities and the \
           Kendall-tau reordering against the drawn and slow-corner \
           rankings.  The section is purely additive: without this flag the \
           output is byte-identical to before it existed.")

(* Refused at parse time: the runtime would start domains until it
   refused one, after the run had begun printing. *)
let domains_arg =
  let limit = Exec.Pool.max_domains in
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > limit ->
        Error (`Msg (Printf.sprintf "%d domains is above the runtime's limit of %d" n limit))
    | r -> r
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer int)) 1
    & info [ "domains" ]
        ~doc:
          (Printf.sprintf
             "Worker domains for model OPC (its correction tiles and their sim \
              tiles) and CD extraction: at most %d, the runtime's limit \
              (values below 1 mean 1).  Results are bit-identical for any \
              value." limit))

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the content-addressed litho tile cache for this run \
           (results are bit-identical either way; this trades wall time for \
           memory).")

let checkpoint_arg =
  Arg.(
    value & opt string ""
    & info [ "checkpoint" ]
        ~doc:
          "Write stage checkpoints (post-OPC mask geometry, extracted gate \
           CDs) into $(docv), keyed by a content hash of each stage's inputs."
        ~docv:"DIR")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "With $(b,--checkpoint), load matching stage checkpoints instead of \
           recomputing; stale or tampered checkpoints are rejected and the \
           stage recomputes.  A resumed run is byte-identical to a clean one.")

let trace_arg =
  Arg.(
    value & opt string ""
    & info [ "trace" ]
        ~doc:
          "Write span events (JSONL, one object per line) to $(docv); also \
           prints the span tree to stderr.  Empty = tracing stays off."
        ~docv:"FILE")

let metrics_arg =
  Arg.(
    value & opt string ""
    & info [ "metrics" ]
        ~doc:
          "Write the metrics registry (JSONL) to $(docv) when the command \
           exits.  Empty = no file is written." ~docv:"FILE")

let profile_arg =
  Arg.(
    value & opt string ""
    & info [ "profile" ]
        ~doc:
          "Record span timings (with per-span allocation) and write a \
           Chrome-trace JSON profile to $(docv) when the command exits — load \
           it in chrome://tracing or Perfetto; the self-time table goes to \
           stderr.  Primary stdout is byte-identical with or without this \
           flag.  Empty = profiling stays off." ~docv:"FILE")

let run_cmd =
  let doc = "run the full post-OPC extraction timing flow on a benchmark" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_flow $ bench_arg $ opc_arg $ seed_arg $ dose_arg $ defocus_arg
      $ spread_arg $ report_arg $ selective_arg $ ssta_arg
      $ domains_arg $ no_cache_arg
      $ checkpoint_arg $ resume_arg $ trace_arg $ metrics_arg $ profile_arg)

let serve_cmd =
  let doc =
    "run the flow once, then answer timing queries against the warm state"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Runs the full flow at startup and keeps the placed chip, post-OPC \
         mask, aerial tile cache, extracted CDs and annotated timing graph \
         resident.  Requests are JSONL, one object per line on stdin; \
         each gets exactly one response line, in request order.  Verbs: \
         status, retime, whatif, cds, corner, ssta (process-window fit + \
         canonical-form statistical timing, computed once and served \
         warm), metrics (the session's counters), shutdown — see the \
         protocol reference in README.md.  A field the verb does not read \
         is refused.";
      `P
        "Each request runs under a $(i,serve.<verb>) span carrying its \
         response $(i,id) and $(i,ok) attributes, written by $(b,--trace) \
         and $(b,--profile); $(b,--metrics) dumps the registry, whose \
         per-verb latency p50/p95/p99 $(b,potx obs-report --metrics) \
         prints.  None of it shares the response channel.";
      `P
        "Responses are byte-deterministic: the same request script yields \
         identical bytes for any $(b,--domains) or tile-cache \
         state, and each reply equals the matching cold one-shot run." ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_flow $ bench_arg $ opc_arg $ seed_arg $ dose_arg
      $ defocus_arg $ domains_arg $ no_cache_arg
      $ trace_arg $ metrics_arg $ profile_arg)

(* ---- cells ---- *)

let show_cells () =
  let tech = Layout.Tech.node90 in
  Format.printf "%a@." Layout.Tech.pp tech;
  List.iter
    (fun (name, (c : Layout.Cell.t)) ->
      Format.printf "%-10s %5dx%d nm, %d devices, %d shapes@." name c.Layout.Cell.width
        c.Layout.Cell.height
        (List.length c.Layout.Cell.transistors)
        (List.length c.Layout.Cell.shapes))
    (Layout.Stdcell.library tech)

let cells_cmd =
  Cmd.v (Cmd.info "cells" ~doc:"list the standard-cell library") Term.(const show_cells $ const ())

(* ---- litho ---- *)

let show_litho () =
  let tech = Layout.Tech.node90 in
  let model = Litho.Aerial.calibrate (Litho.Model.create ()) tech in
  Format.printf "%a@." Litho.Model.pp model;
  List.iter
    (fun (k : Litho.Model.kernel) ->
      Format.printf "  kernel sigma=%.0fnm weight=%+.3f@." k.Litho.Model.sigma
        k.Litho.Model.weight)
    model.Litho.Model.kernels

let litho_cmd =
  Cmd.v (Cmd.info "litho" ~doc:"show the calibrated optical model") Term.(const show_litho $ const ())

(* ---- drc ---- *)

let run_drc n seed =
  let tech = Layout.Tech.node90 in
  let rng = Stats.Rng.create seed in
  let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n in
  Format.printf "%a@." Layout.Chip.pp chip;
  Format.printf "%a@." Layout.Drc.pp_report (Layout.Drc.check_chip chip)

let drc_cmd =
  let cells = Arg.(value & opt int 30 & info [ "cells" ] ~doc:"Random cells to place.") in
  Cmd.v (Cmd.info "drc" ~doc:"place a random block and run design-rule checks")
    Term.(const run_drc $ cells $ seed_arg)

(* ---- liberty ---- *)

let export_liberty path =
  let tech = Layout.Tech.node90 in
  let env = Circuit.Delay_model.default_env tech in
  let lib = Circuit.Nldm.build_library env in
  Circuit.Liberty.save_file path env lib;
  Format.printf "wrote %s (%d cells)@." path (List.length Circuit.Cell_lib.all)

let liberty_cmd =
  let out =
    Arg.(value & opt string "post_opc_timing.lib" & info [ "o"; "out" ] ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "liberty" ~doc:"characterise the cell library and write a Liberty file")
    Term.(const export_liberty $ out)

(* ---- export ---- *)

let export_layout bench seed path =
  let netlist = netlist_of_name seed bench in
  let config = { (Timing_opc.Flow.default_config ()) with Timing_opc.Flow.seed } in
  let chip = Timing_opc.Flow.place config netlist in
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Layout.Io.write_chip ppf chip;
  Format.pp_print_flush ppf ();
  close_out oc;
  Format.printf "wrote %s (%a)@." path Layout.Chip.pp chip

let export_cmd =
  let out =
    Arg.(value & opt string "layout.txt" & info [ "o"; "out" ] ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"place a benchmark and dump the flattened layout as text")
    Term.(const export_layout $ bench_arg $ seed_arg $ out)

(* ---- cds ---- *)

let export_cds bench seed path domains no_cache trace metrics =
  with_obs ~trace ~metrics @@ fun () ->
  let base = Timing_opc.Flow.default_config () in
  let config =
    { base with
      Timing_opc.Flow.seed;
      domains = max 1 domains;
      cache = not no_cache }
  in
  let r = Timing_opc.Flow.run config (netlist_of_name seed bench) in
  (* Hex-float CDs: a reader gets every float back bit for bit. *)
  Cdex.Csv.save_file path r.Timing_opc.Flow.cds;
  Format.printf "wrote %s (%d gate-CD records)@." path (List.length r.Timing_opc.Flow.cds)

let cds_cmd =
  let out = Arg.(value & opt string "gates.csv" & info [ "o"; "out" ] ~doc:"Output path.") in
  Cmd.v
    (Cmd.info "cds" ~doc:"run the flow and export the extracted gate CDs as CSV")
    Term.(
      const export_cds $ bench_arg $ seed_arg $ out $ domains_arg $ no_cache_arg
      $ trace_arg $ metrics_arg)

(* ---- obs-check / obs-report ---- *)

let obs_check trace metrics require_nonzero =
  let v =
    Obs.Report.check ?trace:(sink trace) ?metrics:(sink metrics) ~require_nonzero ()
  in
  List.iter (Format.printf "obs-check: %s@.") v.Obs.Report.summary;
  match v.Obs.Report.problems with
  | [] -> Format.printf "obs-check: OK@."
  | ps ->
      List.iter (Format.eprintf "obs-check: %s@.") ps;
      exit 1

let obs_check_cmd =
  let trace =
    Arg.(value & opt string "" & info [ "trace" ] ~doc:"Trace JSONL to validate." ~docv:"FILE")
  in
  let metrics =
    Arg.(
      value & opt string ""
      & info [ "metrics" ] ~doc:"Metrics JSONL to validate." ~docv:"FILE")
  in
  let require_nonzero =
    Arg.(
      value & opt_all string []
      & info [ "require-nonzero" ]
          ~doc:
            "Fail unless the named counter/gauge has a value > 0 in the \
             metrics file (repeatable).  bin/smoke.sh uses this to assert, \
             for one, that the tile cache actually hit." ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "obs-check"
       ~doc:
         "validate trace/metrics JSONL produced by --trace/--metrics against \
          the capture schema: every flow-stage span, the required metrics \
          with their kinds, and a serve.latency.<verb> histogram for every \
          counted serve verb")
    Term.(const obs_check $ trace $ metrics $ require_nonzero)

let obs_report metrics trace =
  if metrics = "" && trace = "" then begin
    Format.eprintf "obs-report: pass --metrics and/or --trace@.";
    exit 2
  end;
  match
    Obs.Report.summarise ?metrics:(sink metrics) ?trace:(sink trace)
      Format.std_formatter
  with
  | Ok () -> ()
  | Error e ->
      Format.eprintf "obs-report: %s@." e;
      exit 1

let obs_report_cmd =
  let metrics =
    Arg.(
      value & opt file ""
      & info [ "metrics" ]
          ~doc:"Metrics JSONL (as written by --metrics) to summarise."
          ~docv:"FILE")
  in
  let trace =
    Arg.(
      value & opt file ""
      & info [ "trace" ]
          ~doc:"Trace JSONL (as written by --trace) to summarise." ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:
         "summarise captured observability files: latency quantiles, pool \
          occupancy, cache hit rate, span self-time (stage time included)")
    Term.(const obs_report $ metrics $ trace)

let () =
  let doc = "post-OPC critical-dimension extraction for advanced timing analysis" in
  let info = Cmd.info "potx" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; serve_cmd; cells_cmd; litho_cmd; drc_cmd; liberty_cmd;
            export_cmd; cds_cmd; obs_check_cmd; obs_report_cmd ]))
