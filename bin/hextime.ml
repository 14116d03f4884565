(* hextime: analytical time modeling and tile-size selection for GPGPU
   stencils (PPoPP'17 reproduction).

   Each subcommand does one of three jobs:
   - reproduce a paper artifact: predict, tune, strategies, validate,
     campaign, naive, solve, ampl, codegen, and report, which renders
     every table and figure of the evaluation;
   - run the tile advisor: index, serve, ask, dash;
   - gate CI, or read the ledger the gates write: lint, prove, profile,
     accuracy-compare, history, watch, explain, trace-verify,
     metrics-verify.
   A running advisor's metrics are read one way, the stats frame on its
   socket: dash draws them and metrics-verify checks them.
   Throughput is measured by hexbench (hexbench/README.md), not here. *)

module Gpu = Hextime_gpu
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Model = Hextime_core.Model
module Runner = Hextime_tileopt.Runner
module Optimizer = Hextime_tileopt.Optimizer
module Strategies = Hextime_tileopt.Strategies
module Space = Hextime_tileopt.Space
module Amplgen = Hextime_tileopt.Amplgen
module H = Hextime_harness
module Parsweep = Hextime_parsweep.Parsweep
module Tabulate = Hextime_prelude.Tabulate
module Minijson = Hextime_prelude.Minijson
module Obs = Hextime_obs

open Cmdliner

let die fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt

(* --- shared argument parsing ------------------------------------------- *)

let arch_arg =
  let parse s =
    match Gpu.Arch.find s with
    | a -> Ok a
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown architecture %S (expected %s)" s
               (String.concat " | "
                  (List.map (fun (a : Gpu.Arch.t) -> a.name) Gpu.Arch.presets))))
  in
  let print ppf (a : Gpu.Arch.t) = Format.pp_print_string ppf a.name in
  Arg.(
    value
    & opt (conv (parse, print)) Gpu.Arch.gtx980
    & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"GPU architecture preset.")

let stencil_arg =
  let parse s =
    match Stencil.find s with
    | st -> Ok st
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown stencil %S (expected one of: %s)" s
               (String.concat ", "
                  (List.map (fun (st : Stencil.t) -> st.name)
                     Stencil.all_benchmarks))))
  in
  let print ppf (st : Stencil.t) = Format.pp_print_string ppf st.name in
  Arg.(
    value
    & opt (conv (parse, print)) Stencil.heat2d
    & info [ "s"; "stencil" ] ~docv:"STENCIL" ~doc:"Stencil benchmark name.")

let ints_of_string s =
  try Some (List.map int_of_string (String.split_on_char 'x' s))
  with Failure _ -> None

let dims_conv what =
  let parse s =
    match ints_of_string s with
    | Some (_ :: _ as xs) -> Ok (Array.of_list xs)
    | _ -> Error (`Msg (Printf.sprintf "bad %s %S (use e.g. 4096x4096)" what s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (String.concat "x" (Array.to_list (Array.map string_of_int a)))
  in
  Arg.conv (parse, print)

let space_arg =
  Arg.(
    value
    & opt (dims_conv "space size") [| 4096; 4096 |]
    & info [ "S"; "space" ] ~docv:"S1xS2[xS3]" ~doc:"Space extents.")

let time_arg =
  Arg.(
    value & opt int 1024
    & info [ "T"; "time" ] ~docv:"T" ~doc:"Number of time steps.")

let scale_arg =
  let parse s =
    match H.Experiments.scale_of_string s with
    | Ok sc -> Ok sc
    | Error e -> Error (`Msg e)
  in
  let print ppf sc =
    Format.pp_print_string ppf (H.Experiments.scale_to_string sc)
  in
  Arg.(
    value
    & opt (conv (parse, print)) H.Experiments.Ci
    & info [ "scale" ] ~docv:"ci|quick|paper"
        ~doc:"Experiment scale (problem-size grid).")

let problem_of stencil space time =
  match Problem.make stencil ~space ~time with
  | p -> Ok p
  | exception Invalid_argument msg -> Error msg

(* --- one configuration: --tile and --threads ------------------------------ *)

let tile_arg ~doc =
  Arg.(
    opt (some (dims_conv "tile sizes")) None
    & info [ "tile" ] ~docv:"tTxtS1[xtS2[xtS3]]" ~doc)

let threads_arg =
  Arg.(value & opt int 256 & info [ "threads" ] ~docv:"N" ~doc:"Threads per block.")

(* [tile] is tT followed by one size per space dimension *)
let config_of tile threads =
  if Array.length tile < 2 then Error "tile needs at least tT and tS1"
  else
    Config.make ~t_t:tile.(0)
      ~t_s:(Array.sub tile 1 (Array.length tile - 1))
      ~threads:[| threads |]
    |> Result.map_error (( ^ ) "invalid configuration: ")

(* a required --tile with --threads: the configuration, or why it is
   rejected *)
let config_arg ~doc =
  Term.(const config_of $ Arg.required (tile_arg ~doc) $ threads_arg)

(* --- sweep execution (parallel engine) ------------------------------------ *)

let jobs_arg =
  Arg.(
    value
    & opt int (Parsweep.Dpool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for sweeps (default: core count, overridable \
           with $(b,HEXTIME_JOBS)).  1 runs fully in-process; results are \
           identical either way.")

(* --- observability (hexscope) ------------------------------------------- *)

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write a Chrome trace-event JSON \
           (openable in chrome://tracing or ui.perfetto.dev) to FILE on \
           exit, with the metrics snapshot embedded under $(b,metrics).  \
           Worker domains record into the same trace, each on its own \
           lane.  Stdout is unaffected: sweep/CSV output stays \
           byte-identical with or without this flag.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics snapshot to stderr on exit.")

(* Wrap a subcommand body with trace/metrics capture.  All hexscope output
   goes to the trace file or stderr, never stdout, so enabling it cannot
   perturb machine-consumed output. *)
let with_obs profile metrics k =
  (match profile with Some _ -> Obs.Trace.enable () | None -> ());
  let r = k () in
  (match profile with
  | None -> ()
  | Some path -> (
      let snap = Obs.Metrics.snapshot () in
      match
        Obs.Trace.write_file path
          ~extra:[ ("metrics", Obs.Metrics.to_json snap) ]
          (Obs.Trace.events ())
      with
      | Ok () ->
          Format.eprintf "hexscope: wrote %s (%d span events)@." path
            (Obs.Trace.num_events ())
      | Error msg -> Format.eprintf "hexscope: %s@." msg));
  if metrics then prerr_string (Obs.Metrics.render (Obs.Metrics.snapshot ()));
  r

(* --- hexwatch (run ledger) ----------------------------------------------- *)

let ledger_arg =
  Arg.(
    value
    & opt string (Obs.Ledger.default_path ())
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "hexwatch run-ledger file (default: $(b,HEXTIME_LEDGER), else \
           hexwatch-ledger.jsonl).  Runs append one compact JSON record \
           each; browse the trajectory with $(b,hextime history).")

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ] ~doc:"Do not record this run in the ledger.")

(* Recording is best-effort: a read-only checkout must not break a run. *)
let ledger_record ~ledger ~no_ledger entry =
  if not no_ledger then
    match Obs.Ledger.append ~path:ledger entry with
    | Ok () -> ()
    | Error msg -> Format.eprintf "hexwatch: ledger: %s@." msg

let sweep_stat_metrics ~elapsed_s (stats : Parsweep.stats) =
  let total = float_of_int stats.Parsweep.total in
  [
    ("points", total);
    ("points_per_sec", if elapsed_s > 0.0 then total /. elapsed_s else 0.0);
    ("elapsed_s", elapsed_s);
  ]

let metrics_snapshot () = Obs.Metrics.to_json (Obs.Metrics.snapshot ())

(* --- predict ------------------------------------------------------------ *)

let predict_cmd =
  let config =
    config_arg ~doc:"Tile sizes: time tile then one per space dimension."
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the full derivation.")
  in
  let run arch stencil space time config explain_flag =
    match (problem_of stencil space time, config) with
    | Error msg, _ | _, Error msg -> die "%s" msg
    | Ok problem, Ok cfg -> (
        let params = H.Microbench.params arch in
        let citer = H.Microbench.citer arch stencil in
        match Model.predict params ~citer problem cfg with
        | Error msg -> die "model: %s" msg
        | Ok pr ->
            Format.printf "problem:    %a on %s@." Problem.pp problem
              arch.Gpu.Arch.name;
            Format.printf "config:     %a@." Config.pp cfg;
            Format.printf "model:      %a@." Model.pp_prediction pr;
            (if explain_flag then
               match Model.explain params ~citer problem cfg with
               | Ok text -> print_string text
               | Error msg -> Format.printf "explain failed: %s@." msg);
            (match Runner.measure arch problem cfg with
            | Ok m ->
                Format.printf
                  "simulated:  %.4e s (%.1f GFLOP/s, k=%d, %d regs \
                   spilled)@."
                  m.Runner.time_s m.Runner.gflops m.Runner.resident_blocks
                  m.Runner.spilled_regs;
                Format.printf "model/simulated: %.2f@."
                  (pr.Model.talg /. m.Runner.time_s)
            | Error msg -> Format.printf "simulated:  rejected (%s)@." msg);
            `Ok ())
  in
  let term =
    Term.(
      ret (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ config
           $ explain))
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Evaluate the analytical model on one configuration and compare \
          against the simulator.")
    term

(* --- tune --------------------------------------------------------------- *)

let tune_cmd =
  let frac =
    Arg.(
      value & opt float 0.10
      & info [ "frac" ] ~docv:"F"
          ~doc:"Keep shapes within F of the predicted minimum (paper: 0.10).")
  in
  let run arch stencil space time frac profile metrics ledger no_ledger =
    with_obs profile metrics @@ fun () ->
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem ->
        let t0 = Unix.gettimeofday () in
        let params = H.Microbench.params arch in
        let citer = H.Microbench.citer arch stencil in
        let space_eval = Optimizer.evaluate_space params ~citer problem in
        if space_eval = [] then die "empty feasible space"
        else begin
          let best = Optimizer.best space_eval in
          let cands = Optimizer.within_fraction ~frac space_eval in
          Format.printf "feasible shapes: %d; Talg_min = %.4e s at %a@."
            (List.length space_eval) best.Optimizer.prediction.Model.talg
            Space.pp best.Optimizer.shape;
          Format.printf "candidates within %.0f%%: %d@." (100.0 *. frac)
            (List.length cands);
          let ctx = { Strategies.arch; params; citer; problem } in
          match Strategies.model_top10 ctx with
          | Error msg -> die "tuning failed: %s" msg
          | Ok o ->
              Format.printf
                "recommended: %a  (%.4e s simulated, %.1f GFLOP/s, %d \
                 configurations executed)@."
                Config.pp o.Strategies.config
                o.Strategies.measurement.Runner.time_s
                o.Strategies.measurement.Runner.gflops o.Strategies.explored;
              (* hexwatch: how far the pure-model pick (the Talg arg-min,
                 no empirical exploration) lands from the tuned
                 recommendation — 0.0 means inside the frac band *)
              let argmin_metrics =
                match
                  match
                    Space.to_config best.Optimizer.shape ~threads:[| 256 |]
                  with
                  | cfg -> Runner.measure arch problem cfg
                  | exception Invalid_argument msg -> Error msg
                with
                | Error _ -> []
                | Ok am ->
                    let slowdown =
                      (am.Runner.time_s /. o.Strategies.measurement.Runner.time_s)
                      -. 1.0
                    in
                    let distance = Float.max 0.0 (slowdown -. frac) in
                    Format.printf
                      "model arg-min alone: %.4e s simulated (%+.1f%% vs \
                       tuned; band distance %.3f)@."
                      am.Runner.time_s (100.0 *. slowdown) distance;
                    [
                      ("argmin_time_s", am.Runner.time_s);
                      ("argmin_gflops", am.Runner.gflops);
                      ("argmin_band_distance", distance);
                    ]
              in
              ledger_record ~ledger ~no_ledger
                (Obs.Ledger.make ~kind:"tune"
                   ~code_version:H.Sweep.code_version
                   ~labels:
                     [
                       ("arch", arch.Gpu.Arch.name);
                       ("stencil", stencil.Stencil.name);
                       ("problem", Problem.id problem);
                     ]
                   ~metrics:
                     ([
                        ("feasible_shapes", float_of_int (List.length space_eval));
                        ("candidates", float_of_int (List.length cands));
                        ("explored", float_of_int o.Strategies.explored);
                        ("frac", frac);
                        ("talg_min", best.Optimizer.prediction.Model.talg);
                        ("tuned_time_s", o.Strategies.measurement.Runner.time_s);
                        ("tuned_gflops", o.Strategies.measurement.Runner.gflops);
                        ("elapsed_s", Unix.gettimeofday () -. t0);
                      ]
                     @ argmin_metrics)
                   ~snapshot:(metrics_snapshot ()) ());
              `Ok ()
        end
  in
  let term =
    Term.(
      ret
        (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ frac
       $ profile_arg $ metrics_arg $ ledger_arg $ no_ledger_arg))
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Model-guided tile-size selection (Section 6): enumerate the \
          feasible space, keep the within-10% candidates, explore them \
          empirically.")
    term

(* --- strategies ---------------------------------------------------------- *)

let strategies_cmd =
  let run arch stencil space time =
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem ->
        let params = H.Microbench.params arch in
        let citer = H.Microbench.citer arch stencil in
        let ctx = { Strategies.arch; params; citer; problem } in
        let t =
          Tabulate.create
            ~title:(Printf.sprintf "Strategies for %s on %s" (Problem.id problem) arch.Gpu.Arch.name)
            [
              ("strategy", Tabulate.Left);
              ("configuration", Tabulate.Left);
              ("time", Tabulate.Right);
              ("GFLOP/s", Tabulate.Right);
              ("explored", Tabulate.Right);
            ]
        in
        let t =
          List.fold_left
            (fun t (name, outcome) ->
              match outcome with
              | Ok (o : Strategies.outcome) ->
                  Tabulate.add_row t
                    [
                      name;
                      Config.id o.Strategies.config;
                      Tabulate.seconds_cell o.Strategies.measurement.Runner.time_s;
                      Printf.sprintf "%.1f" o.Strategies.measurement.Runner.gflops;
                      string_of_int o.Strategies.explored;
                    ]
              | Error msg -> Tabulate.add_row t [ name; "failed: " ^ msg; "-"; "-"; "-" ])
            t
            (Strategies.all ~max_configs:2000 ctx)
        in
        Tabulate.print t;
        `Ok ()
  in
  let term =
    Term.(ret (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg))
  in
  Cmd.v
    (Cmd.info "strategies"
       ~doc:"Compare the tile-size selection strategies of Figure 6 on one instance.")
    term

(* --- validate ------------------------------------------------------------ *)

let validate_cmd =
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the sweep as CSV.")
  in
  let plot =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render the ASCII scatter plot.")
  in
  let run arch stencil space time csv plot jobs profile metrics ledger
      no_ledger =
    with_obs profile metrics @@ fun () ->
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem ->
        let t0 = Unix.gettimeofday () in
        let e = { H.Experiments.arch; problem } in
        let exec = Parsweep.default ~jobs () in
        let full, stats = H.Sweep.run ~exec e in
        let elapsed_s = Unix.gettimeofday () -. t0 in
        let sweep = full.H.Sweep.points in
        if sweep = [] then die "no data point survived"
        else begin
          Format.printf "sweep: %a (%a)@." Parsweep.pp_stats stats
            H.Sweep.pp_drops full;
          let s = H.Validation.analyze sweep in
          Format.printf "%s: %a@." (H.Experiments.id e) H.Validation.pp_summary s;
          ledger_record ~ledger ~no_ledger
            (Obs.Ledger.make ~kind:"validate"
               ~code_version:H.Sweep.code_version
               ~labels:
                 [
                   ("experiment", H.Experiments.id e);
                   ("arch", arch.Gpu.Arch.name);
                   ("stencil", stencil.Stencil.name);
                   ("jobs", string_of_int jobs);
                 ]
               ~metrics:
                 (sweep_stat_metrics ~elapsed_s stats
                 @ List.filter
                     (fun (k, _) -> k <> "points")
                     (H.Validation.metrics s))
               ~groups:[ (H.Experiments.id e, H.Validation.metrics s) ]
               ~snapshot:(metrics_snapshot ()) ());
          if plot then
            print_string
              (H.Scatter.render ~title:"predicted (x) vs measured (y)"
                 (H.Validation.scatter sweep));
          match csv with
          | None -> `Ok ()
          | Some path -> (
              match H.Export.write_file ~path (H.Export.sweep_csv sweep) with
              | Ok () ->
                  Format.printf "wrote %s@." path;
                  `Ok ()
              | Error msg -> die "csv: %s" msg)
        end
  in
  let term =
    Term.(
      ret
        (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ csv $ plot
       $ jobs_arg $ profile_arg $ metrics_arg $ ledger_arg $ no_ledger_arg))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Run the 850-point baseline sweep for one experiment and report \
             the RMSE bands of Section 5.3.")
    term

(* --- codegen --------------------------------------------------------------- *)

let codegen_cmd =
  let run stencil space time config =
    match (problem_of stencil space time, config) with
    | Error msg, _ | _, Error msg -> die "%s" msg
    | Ok problem, Ok cfg -> (
        match Hextime_tiling.Codegen.program problem cfg with
        | Ok text ->
            print_string text;
            `Ok ()
        | Error msg -> die "codegen: %s" msg)
  in
  let term =
    Term.(
      ret
        (const run $ stencil_arg $ space_arg $ time_arg
       $ config_arg ~doc:"Tile sizes."))
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Emit the CUDA-like pseudo-code of a tiled schedule (what the \
             HHC compiler would generate).")
    term

(* --- lint ------------------------------------------------------------------- *)

let lint_cmd =
  let module Hexlint = Hextime_analysis.Hexlint in
  let tile =
    Arg.value (tile_arg ~doc:"Tile sizes of the single configuration to lint.")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Lint every feasible baseline configuration of every experiment \
             at the given $(b,--scale) instead of a single configuration.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"text|json" ~doc:"Output format.")
  in
  let fail_on =
    Arg.(
      value
      & opt (enum [ ("error", `Error); ("warning", `Warning) ]) `Error
      & info [ "fail-on" ] ~docv:"error|warning"
          ~doc:
            "Minimum severity that makes the exit status non-zero.  The \
             default $(b,error) means warning-only reports are informational.")
  in
  let fail_on_name = function `Error -> "error" | `Warning -> "warning" in
  let failing_of fail_on reports =
    List.filter
      (fun r ->
        match fail_on with
        | `Error -> Hexlint.error_count r > 0
        | `Warning -> r.Hexlint.findings <> [])
      reports
  in
  let finish fmt fail_on reports ~skipped ~crashed =
    let linted = List.length reports in
    let dirty = List.filter (fun r -> r.Hexlint.findings <> []) reports in
    let failing = failing_of fail_on dirty in
    (* stderr: keeps --format json output machine-parseable *)
    List.iter
      (fun (e, cfg, msg) ->
        Format.eprintf "lint: crashed on %s %s: %s@." (H.Experiments.id e)
          (Config.id cfg) msg)
      crashed;
    let n_crashed = List.length crashed in
    (match fmt with
    | `Json -> print_string (Hexlint.render_json dirty)
    | `Text ->
        print_string (Hexlint.render_sweep_text dirty);
        Printf.printf
          "linted %d configuration(s) (%d infeasible skipped%s): %s\n" linted
          skipped
          (if n_crashed = 0 then ""
           else Printf.sprintf ", %d crashed" n_crashed)
          (if dirty <> [] then
             Printf.sprintf "%d with findings, %d at or above --fail-on=%s"
               (List.length dirty) (List.length failing)
               (fail_on_name fail_on)
           else if n_crashed > 0 then "incomplete"
           else "clean"));
    if n_crashed > 0 then
      die "lint: %d configuration(s) crashed while linting" n_crashed
    else if failing = [] then `Ok ()
    else
      die "lint: findings at or above --fail-on=%s in %d of %d \
           configuration(s)"
        (fail_on_name fail_on) (List.length failing) linted
  in
  let run arch stencil space time tile threads sweep scale fmt fail_on jobs
      profile metrics =
    with_obs profile metrics @@ fun () ->
    if sweep && tile <> None then die "pass --tile or --sweep, not both"
    else if sweep then begin
      let exec = Parsweep.default ~jobs () in
      (* params/citer are computed once per experiment, before the sweep
         fans its configurations out to the workers *)
      let tasks =
        List.concat_map
          (fun (e : H.Experiments.t) ->
            let params = H.Microbench.params e.arch in
            let citer = H.Microbench.citer e.arch e.problem.Problem.stencil in
            List.map
              (fun cfg -> (e, params, citer, cfg))
              (Hextime_tileopt.Baseline.data_points params e.problem))
          (H.Experiments.all scale)
      in
      let outcomes, stats =
        Parsweep.map exec
          ~f:(fun ((e : H.Experiments.t), params, citer, cfg) ->
            match
              Hexlint.lint_config params ~arch:e.arch ~citer e.problem cfg
            with
            | Ok r -> Some r
            | Error _ -> None)
          tasks
      in
      (* [Ok None] is a configuration the model rejected; [Error] is an
         exception inside the linter, which must fail the gate *)
      let reports = ref [] and skipped = ref 0 and crashed = ref [] in
      List.iter2
        (fun ((e : H.Experiments.t), _, _, cfg) -> function
          | Ok (Some r) -> reports := r :: !reports
          | Ok None -> incr skipped
          | Error msg -> crashed := (e, cfg, msg) :: !crashed)
        tasks outcomes;
      Format.eprintf "lint sweep: %a@." Parsweep.pp_stats stats;
      finish fmt fail_on (List.rev !reports) ~skipped:!skipped
        ~crashed:(List.rev !crashed)
    end
    else
      match tile with
      | None -> die "either --tile or --sweep is required"
      | Some tile -> (
          match (problem_of stencil space time, config_of tile threads) with
          | Error msg, _ | _, Error msg -> die "%s" msg
          | Ok problem, Ok cfg -> (
              let params = H.Microbench.params arch in
              let citer = H.Microbench.citer arch stencil in
              match Hexlint.lint_config params ~arch ~citer problem cfg with
              | Error msg -> die "lint: %s" msg
              | Ok r ->
                  (match fmt with
                  | `Json -> print_string (Hexlint.render_json [ r ])
                  | `Text -> print_string (Hexlint.render_text r));
                  if failing_of fail_on [ r ] = [] then `Ok ()
                  else
                    die "lint: %d finding(s) at or above --fail-on=%s"
                      (List.length r.Hexlint.findings)
                      (fail_on_name fail_on)))
  in
  let term =
    Term.(
      ret
        (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ tile
       $ threads_arg $ sweep $ scale_arg $ format $ fail_on $ jobs_arg
       $ profile_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the hexlint static-analysis passes (races, bounds, bank \
          conflicts, resources, model conformance) on the lowered kernel IR \
          of one configuration, or of the whole feasible baseline sweep with \
          $(b,--sweep).  Exits non-zero when findings at or above \
          $(b,--fail-on) (default: error) are present; with \
          $(b,--format)=json only configurations with findings are printed.  \
          A configuration whose lint raises fails the sweep too.")
    term

(* --- prove ------------------------------------------------------------------ *)

let prove_cmd =
  let module Hexabs = Hextime_analysis.Hexabs in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Certify every experiment at the given $(b,--scale) instead of a \
             single problem.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"text|json" ~doc:"Output format.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Cross-check the certificate point-for-point against exhaustive \
             enumeration and the branch-and-bound arg-min against the \
             exhaustive minimum; exit non-zero on any disagreement, or if \
             more than 25% of the lattice had to be enumerated.")
  in
  let slack =
    Arg.(
      value & opt float 0.25
      & info [ "slack" ] ~docv:"FRAC"
          ~doc:
            "Boxes whose certified lower bound is within this fraction of \
             the optimum survive as live descent-seed regions.")
  in
  let regions =
    Arg.(
      value & flag
      & info [ "regions" ]
          ~doc:
            "Print one line per certificate region in text mode (JSON output \
             always carries the region list).")
  in
  let run_one ~check ~slack ~label arch params ~citer problem =
    let tt, ts = Space.axes problem in
    let l = Hexabs.lattice ~tt ~ts in
    let cert = Hexabs.prove params problem l in
    let bnb = Hexabs.minimize ~slack params ~citer problem l in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    let enum_frac =
      float_of_int cert.Hexabs.cert_enumerated_points
      /. float_of_int (max 1 cert.Hexabs.cert_total_points)
    in
    if check then begin
      let mism = ref 0 in
      List.iter
        (fun (pt : Hexabs.point) ->
          let concrete = Hexabs.point_feasible params problem pt in
          match
            Hexabs.certificate_feasible cert l ~t_t:pt.Hexabs.p_tt
              ~t_s:pt.Hexabs.p_ts
          with
          | Some c when c = concrete -> ()
          | _ -> incr mism)
        (Hexabs.members l (Hexabs.full_box l));
      if !mism > 0 then
        fail "certificate disagrees with enumeration at %d point(s)" !mism;
      if enum_frac > 0.25 then
        fail "prover enumerated %.1f%% of the lattice (budget 25%%)"
          (100.0 *. enum_frac);
      match bnb with
      | Error msg -> fail "branch-and-bound failed: %s" msg
      | Ok r ->
          let ex_min =
            List.fold_left
              (fun acc (s : Space.shape) ->
                match
                  Hexabs.point_talg params ~citer problem
                    { Hexabs.p_tt = s.Space.t_t; p_ts = s.Space.t_s }
                with
                | Some t -> min acc t
                | None -> acc)
              infinity
              (Space.shapes params problem)
          in
          if r.Hexabs.bnb_talg <> ex_min then
            fail
              "branch-and-bound minimum %.17g differs from the exhaustive \
               sweep's %.17g"
              r.Hexabs.bnb_talg ex_min
    end;
    ignore arch;
    (l, cert, bnb, enum_frac, List.rev !failures, label)
  in
  let region_json l (r : Hexabs.region) =
    let (ttlo, tthi), ranges = Hexabs.value_ranges l r.Hexabs.r_box in
    let pair (lo, hi) =
      Minijson.List [ Num (float_of_int lo); Num (float_of_int hi) ]
    in
    Minijson.Obj
      [
        ("t_t", pair (ttlo, tthi));
        ("t_s", Minijson.List (Array.to_list (Array.map pair ranges)));
        ("verdict", Str (Hexabs.verdict_name r.Hexabs.r_verdict));
        ( "constraint",
          match Hexabs.verdict_constraint r.Hexabs.r_verdict with
          | Some c -> Str c
          | None -> Null );
        ("points", Num (float_of_int r.Hexabs.r_points));
      ]
  in
  let result_json (l, cert, bnb, enum_frac, failures, label) =
    let n = float_of_int in
    let bnb_json =
      match bnb with
      | Error msg -> Minijson.Obj [ ("error", Str msg) ]
      | Ok (r : Hexabs.bnb) ->
          Minijson.Obj
            [
              ( "best",
                Str
                  (Space.id
                     {
                       Space.t_t = r.Hexabs.bnb_best.Hexabs.p_tt;
                       t_s = r.Hexabs.bnb_best.Hexabs.p_ts;
                     }) );
              ("talg", Num r.Hexabs.bnb_talg);
              ("evals_concrete", Num (n r.Hexabs.bnb_evals_concrete));
              ("evals_bound", Num (n r.Hexabs.bnb_evals_bound));
              ("boxes_pruned", Num (n r.Hexabs.bnb_boxes_pruned));
              ("boxes_visited", Num (n r.Hexabs.bnb_boxes_enumerated));
              ("live_boxes", Num (n (List.length r.Hexabs.bnb_live)));
            ]
    in
    Minijson.Obj
      [
        ("experiment", Str label);
        ("lattice_points", Num (n cert.Hexabs.cert_total_points));
        ("feasible_points", Num (n cert.Hexabs.cert_feasible_points));
        ("proven_points", Num (n cert.Hexabs.cert_proven_points));
        ("enumerated_points", Num (n cert.Hexabs.cert_enumerated_points));
        ("enumerated_fraction", Num enum_frac);
        ("boxes_feasible", Num (n cert.Hexabs.cert_boxes_feasible));
        ("boxes_infeasible", Num (n cert.Hexabs.cert_boxes_infeasible));
        ("boxes_enumerated", Num (n cert.Hexabs.cert_boxes_enumerated));
        ("splits", Num (n cert.Hexabs.cert_splits));
        ("bnb", bnb_json);
        ("check_failures", Minijson.List (List.map (fun m -> Minijson.Str m) failures));
        ("regions", Minijson.List (List.map (region_json l) cert.Hexabs.cert_regions));
      ]
  in
  let print_text ~check ~print_regions (l, cert, bnb, enum_frac, failures, label)
      =
    Printf.printf "%s: %d lattice points, %d feasible\n" label
      cert.Hexabs.cert_total_points cert.Hexabs.cert_feasible_points;
    Printf.printf
      "  certificate: %d feasible + %d infeasible boxes proven (%d points), \
       %d boxes enumerated (%d points, %.1f%% of lattice), %d splits\n"
      cert.Hexabs.cert_boxes_feasible cert.Hexabs.cert_boxes_infeasible
      cert.Hexabs.cert_proven_points cert.Hexabs.cert_boxes_enumerated
      cert.Hexabs.cert_enumerated_points
      (100.0 *. enum_frac)
      cert.Hexabs.cert_splits;
    (match bnb with
    | Error msg -> Printf.printf "  branch-and-bound: failed (%s)\n" msg
    | Ok r ->
        Printf.printf
          "  branch-and-bound: %s -> Talg %.4e s; %d concrete + %d interval \
           evaluation(s), %d boxes pruned, %d live seed box(es)\n"
          (Space.id
             {
               Space.t_t = r.Hexabs.bnb_best.Hexabs.p_tt;
               t_s = r.Hexabs.bnb_best.Hexabs.p_ts;
             })
          r.Hexabs.bnb_talg r.Hexabs.bnb_evals_concrete
          r.Hexabs.bnb_evals_bound r.Hexabs.bnb_boxes_pruned
          (List.length r.Hexabs.bnb_live));
    if print_regions then
      List.iter
        (fun (r : Hexabs.region) ->
          let (ttlo, tthi), ranges = Hexabs.value_ranges l r.Hexabs.r_box in
          Printf.printf "  region tT[%d,%d]%s: %s (%d points)%s\n" ttlo tthi
            (String.concat ""
               (Array.to_list
                  (Array.map
                     (fun (lo, hi) -> Printf.sprintf " tS[%d,%d]" lo hi)
                     ranges)))
            (Hexabs.verdict_name r.Hexabs.r_verdict)
            r.Hexabs.r_points
            (match Hexabs.verdict_constraint r.Hexabs.r_verdict with
            | Some c -> " — " ^ c
            | None -> ""))
        cert.Hexabs.cert_regions;
    if check then
      if failures = [] then Printf.printf "  check: PASS\n"
      else
        List.iter (fun m -> Printf.printf "  check: FAIL — %s\n" m) failures
  in
  let run arch stencil space time sweep scale fmt check slack regions profile
      metrics =
    with_obs profile metrics @@ fun () ->
    let inputs =
      if sweep then
        Ok
          (List.map
             (fun (e : H.Experiments.t) ->
               let params = H.Microbench.params e.arch in
               let citer =
                 H.Microbench.citer e.arch e.problem.Problem.stencil
               in
               (H.Experiments.id e, e.arch, params, citer, e.problem))
             (H.Experiments.all scale))
      else
        match problem_of stencil space time with
        | Error msg -> Error msg
        | Ok problem ->
            let params = H.Microbench.params arch in
            let citer = H.Microbench.citer arch stencil in
            Ok
              [
                ( Printf.sprintf "%s/%s" arch.Gpu.Arch.name
                    (Problem.id problem),
                  arch,
                  params,
                  citer,
                  problem );
              ]
    in
    match inputs with
    | Error msg -> die "%s" msg
    | Ok inputs ->
        let results =
          List.map
            (fun (label, arch, params, citer, problem) ->
              run_one ~check ~slack ~label arch params ~citer problem)
            inputs
        in
        (match fmt with
        | `Json ->
            print_string
              (Minijson.render (Minijson.List (List.map result_json results)))
        | `Text ->
            List.iter (print_text ~check ~print_regions:regions) results);
        let failed =
          List.concat_map (fun (_, _, _, _, fs, label) ->
              List.map (fun m -> (label, m)) fs)
            results
        in
        if failed = [] then `Ok ()
        else begin
          List.iter
            (fun (label, m) -> Format.eprintf "prove: %s: %s@." label m)
            failed;
          die "prove: %d check failure(s)" (List.length failed)
        end
  in
  let term =
    Term.(
      ret
        (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ sweep
       $ scale_arg $ format $ check $ slack $ regions $ profile_arg
       $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Certify the feasible tile-space region with the hexabs abstract \
          domains (a disjoint box cover with per-box verdicts) and run the \
          interval branch-and-bound arg-min search, printing the \
          certificate and pruning statistics.  $(b,--check) cross-checks \
          both against exhaustive enumeration.")
    term

(* --- naive ------------------------------------------------------------------ *)

let naive_cmd =
  let run arch stencil space time =
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem -> (
        match Hextime_tiling.Naive.best arch problem with
        | Error msg -> die "naive: %s" msg
        | Ok t ->
            Format.printf
              "tuned naive (no time tiling): block %s, %d threads -> %.4e s \
               = %.1f GFLOP/s@."
              (String.concat "x"
                 (Array.to_list
                    (Array.map string_of_int t.Hextime_tiling.Naive.block)))
              t.Hextime_tiling.Naive.threads t.Hextime_tiling.Naive.time_s
              t.Hextime_tiling.Naive.gflops;
            let params = H.Microbench.params arch in
            let citer = H.Microbench.citer arch stencil in
            let ctx = { Strategies.arch; params; citer; problem } in
            (match Strategies.model_top10 ctx with
            | Ok o ->
                Format.printf
                  "model-guided HHC:            %s -> %.4e s = %.1f GFLOP/s \
                   (%.1fx faster)@."
                  (Config.id o.Strategies.config)
                  o.Strategies.measurement.Runner.time_s
                  o.Strategies.measurement.Runner.gflops
                  (t.Hextime_tiling.Naive.time_s
                  /. o.Strategies.measurement.Runner.time_s)
            | Error msg -> Format.printf "model-guided HHC failed: %s@." msg);
            `Ok ())
  in
  let term =
    Term.(ret (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg))
  in
  Cmd.v
    (Cmd.info "naive"
       ~doc:"Price a tuned naive (one-kernel-per-time-step) implementation \
             and compare with time-tiled HHC: the motivation of Section 1.")
    term

(* --- solve ------------------------------------------------------------------ *)

let solve_cmd =
  let restarts =
    Arg.(value & opt int 8 & info [ "restarts" ] ~docv:"N" ~doc:"Solver restarts.")
  in
  let run arch stencil space time restarts =
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem -> (
        let params = H.Microbench.params arch in
        let citer = H.Microbench.citer arch stencil in
        match Hextime_tileopt.Descent.solve ~restarts params ~citer problem with
        | Error msg -> die "solver: %s" msg
        | Ok sol ->
            let gap =
              Hextime_tileopt.Descent.optimality_gap params ~citer problem sol
            in
            Format.printf
              "local solver: %s predicted %.4e s (%d evaluations, %d \
               restarts); gap to exhaustive enumeration: %+.1f%%@."
              (Space.id sol.Hextime_tileopt.Descent.shape)
              sol.Hextime_tileopt.Descent.talg
              sol.Hextime_tileopt.Descent.evaluations restarts
              (100.0 *. gap);
            `Ok ())
  in
  let term =
    Term.(
      ret (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ restarts))
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Minimise Equation 31 with a multi-start local solver (the \
             Bonmin experiment of Section 6.1) and report its optimality gap.")
    term

(* --- ampl ----------------------------------------------------------------- *)

let ampl_cmd =
  let run arch stencil space time =
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem ->
        let params = H.Microbench.params arch in
        let citer = H.Microbench.citer arch stencil in
        print_string (Amplgen.emit params ~citer problem);
        `Ok ()
  in
  let term =
    Term.(ret (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg))
  in
  Cmd.v
    (Cmd.info "ampl"
       ~doc:"Emit Equation 31 as an AMPL model for external solvers (Section 6.1).")
    term

(* --- profile (hexscope attribution) ------------------------------------- *)

let profile_cmd =
  (* the bound the attribution tests hold both reconstructions to *)
  let reconstruction_bound = 1e-9 in
  let tile =
    Arg.value
      (tile_arg
         ~doc:
           "Tile sizes to profile (default: the model-optimal shape for \
            this instance).")
  in
  let run arch stencil space time tile threads profile metrics =
    with_obs profile metrics @@ fun () ->
    match problem_of stencil space time with
    | Error msg -> die "%s" msg
    | Ok problem -> (
        let params = H.Microbench.params arch in
        let citer = H.Microbench.citer arch stencil in
        let cfg_result =
          match tile with
          | Some tile -> config_of tile threads
          | None -> (
              match Optimizer.evaluate_space params ~citer problem with
              | [] -> Error "empty feasible space"
              | space_eval -> (
                  let best = Optimizer.best space_eval in
                  match
                    Space.to_config best.Optimizer.shape ~threads:[| threads |]
                  with
                  | cfg -> Ok cfg
                  | exception Invalid_argument msg -> Error msg))
        in
        match cfg_result with
        | Error msg -> die "%s" msg
        | Ok cfg -> (
            match Model.attribution params ~citer problem cfg with
            | Error msg -> die "model: %s" msg
            | Ok (pr, comps) -> (
                Format.printf "problem: %a on %s@." Problem.pp problem
                  arch.Gpu.Arch.name;
                Format.printf "config:  %a@." Config.pp cfg;
                Format.printf "model:   %a@.@." Model.pp_prediction pr;
                print_string
                  (Obs.Attribution.render_components
                     ~title:"Where does predicted Talg go (model, Section 5 terms)"
                     comps);
                let sum = Obs.Attribution.total comps in
                let rel = Float.abs (sum -. pr.Model.talg) /. pr.Model.talg in
                Printf.printf
                  "\nattribution sum %.17g s vs talg %.17g s (relative error \
                   %.3e)\n\n"
                  sum pr.Model.talg rel;
                (* simulator side: per-kernel attribution of one priced run *)
                match Hextime_tiling.Lower.compile problem cfg with
                | Error msg -> die "compile: %s" msg
                | Ok compiled -> (
                    let kernels =
                      Hextime_tiling.Lower.kernel_sequence compiled
                    in
                    match Gpu.Simulator.price_sequence arch kernels with
                    | Error msg -> die "simulator: %s" msg
                    | Ok priced ->
                        let acc = Obs.Attribution.create () in
                        List.iter
                          (fun ((p : Gpu.Simulator.priced), count) ->
                            let c =
                              Gpu.Simulator.attribute_priced ~salt:0 arch p
                            in
                            Obs.Attribution.record acc
                              (Printf.sprintf "%s x%d"
                                 p.Gpu.Simulator.kernel.Gpu.Kernel.label count)
                              (Obs.Attribution.scale (float_of_int count) c))
                          priced;
                        print_string
                          (Obs.Attribution.render_top_k
                             ~title:
                               "Where does simulated time go (per kernel, \
                                salt 0)"
                             acc 10);
                        let sim_total =
                          Obs.Attribution.total (Obs.Attribution.totals acc)
                        in
                        let replay =
                          (Gpu.Simulator.replay ~salt:0 arch priced)
                            .Gpu.Simulator.total_s
                        in
                        let sim_rel =
                          Float.abs (sim_total -. replay) /. replay
                        in
                        Printf.printf
                          "\nsimulator attribution sum %.17g s vs replay \
                           %.17g s (relative error %.3e)\n"
                          sim_total replay sim_rel;
                        (* written so that a NaN error fails too *)
                        if
                          not (rel <= reconstruction_bound
                              && sim_rel <= reconstruction_bound)
                        then
                          die
                            "profile: attribution does not reconstruct the \
                             prediction (model %.3e, simulator %.3e relative \
                             error; bound %.0e)"
                            rel sim_rel reconstruction_bound
                        else `Ok ()))))
  in
  let term =
    Term.(
      ret
        (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ tile
       $ threads_arg $ profile_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Break one configuration's predicted time into the paper's \
          Section 5 components (compute, global memory, sync, launch) from \
          the analytical model, plus the per-kernel breakdown of the \
          simulator's priced run.  The component sums reconstruct the \
          predicted totals; the printed relative errors show how exactly, \
          and either one above 1e-9 makes the exit status non-zero.")
    term

(* --- trace-verify ----------------------------------------------------------- *)

let trace_verify_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON to verify.")
  in
  let min_events =
    Arg.(
      value & opt int 1
      & info [ "min-events" ] ~docv:"N" ~doc:"Require at least N span events.")
  in
  let min_lanes =
    Arg.(
      value & opt int 1
      & info [ "min-lanes" ] ~docv:"N"
          ~doc:
            "Require events from at least N distinct lanes, a lane being a \
             (process id, domain id) pair: a parallel sweep's worker \
             domains each record on their own lane.")
  in
  let require_counters =
    Arg.(
      value & opt_all string []
      & info [ "require-counter" ] ~docv:"NAME"
          ~doc:"Require the embedded metrics snapshot to carry this counter \
                (repeatable).")
  in
  let run file min_events min_lanes required =
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> die "trace-verify: %s" msg
    | contents -> (
        match Minijson.parse contents with
        | Error e -> die "trace-verify: %s" e
        | Ok json -> (
            match Minijson.member "traceEvents" json with
            | Some (Minijson.List events) -> (
                let lanes = Hashtbl.create 8 in
                let well_formed =
                  List.for_all
                    (fun ev ->
                      match
                        ( Option.bind (Minijson.member "name" ev)
                            Minijson.string,
                          Option.bind (Minijson.member "ph" ev) Minijson.string,
                          Option.bind (Minijson.member "ts" ev) Minijson.number,
                          Option.bind (Minijson.member "pid" ev)
                            Minijson.number )
                      with
                      | Some _, Some _, Some _, Some pid ->
                          let tid =
                            Option.bind (Minijson.member "tid" ev)
                              Minijson.number
                          in
                          Hashtbl.replace lanes (pid, tid) ();
                          true
                      | _ -> false)
                    events
                in
                if not well_formed then
                  die "trace-verify: %s: event missing name/ph/ts/pid" file
                else if List.length events < min_events then
                  die "trace-verify: %s: %d events < required %d" file
                    (List.length events) min_events
                else if Hashtbl.length lanes < min_lanes then
                  die "trace-verify: %s: %d distinct lanes < required %d" file
                    (Hashtbl.length lanes) min_lanes
                else
                  let counters =
                    match
                      Option.bind (Minijson.member "metrics" json)
                        (Minijson.member "counters")
                    with
                    | Some (Minijson.Obj fields) -> List.map fst fields
                    | _ -> []
                  in
                  match
                    List.filter
                      (fun name -> not (List.mem name counters))
                      required
                  with
                  | [] ->
                      Printf.printf
                        "trace-verify: ok — %d events, %d distinct lanes, %d \
                         counters\n"
                        (List.length events) (Hashtbl.length lanes)
                        (List.length counters);
                      `Ok ()
                  | missing ->
                      die "trace-verify: %s: missing counters: %s" file
                        (String.concat ", " missing))
            | _ -> die "trace-verify: %s: no traceEvents array" file))
  in
  Cmd.v
    (Cmd.info "trace-verify"
       ~doc:
         "Validate a trace file emitted by $(b,--profile): parseable JSON, \
          well-formed trace events, minimum event/worker counts, required \
          metric counters present.  Used by CI on the campaign trace \
          artifact.")
    Term.(ret (const run $ file $ min_events $ min_lanes $ require_counters))

let campaign_cmd =
  let run scale jobs profile metrics ledger no_ledger =
    with_obs profile metrics @@ fun () ->
    let exec = Parsweep.default ~jobs () in
    let t0 = Unix.gettimeofday () in
    let est = H.Campaign.estimate ~exec scale in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    print_string (H.Campaign.render est);
    ledger_record ~ledger ~no_ledger
      (Obs.Ledger.make ~kind:"campaign" ~code_version:H.Sweep.code_version
         ~labels:
           [
             ("scale", H.Experiments.scale_to_string scale);
             ("jobs", string_of_int jobs);
           ]
         ~metrics:
           [
             ("experiments", float_of_int est.H.Campaign.experiments);
             ("data_points", float_of_int est.H.Campaign.data_points);
             ("rejected_points", float_of_int est.H.Campaign.rejected_points);
             ("compile_hours", est.H.Campaign.compile_hours);
             ("run_hours", est.H.Campaign.run_hours);
             ("total_days", est.H.Campaign.total_days);
             ("elapsed_s", elapsed_s);
             ( "points_per_sec",
               if elapsed_s > 0.0 then
                 float_of_int
                   (est.H.Campaign.data_points + est.H.Campaign.rejected_points)
                 /. elapsed_s
               else 0.0 );
           ]
         ~snapshot:(metrics_snapshot ()) ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Price the paper's experimental campaign (Section 8): feasible \
          data points are billed for compilation and five measured runs; \
          rejected configurations are counted separately.")
    Term.(
      ret
        (const run $ scale_arg $ jobs_arg $ profile_arg $ metrics_arg
       $ ledger_arg $ no_ledger_arg))

let report_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run scale out ledger no_ledger =
    let ledger = if no_ledger then None else Some ledger in
    match out with
    | None ->
        print_string (H.Report.markdown ?ledger scale);
        `Ok ()
    | Some path -> (
        match H.Report.write ?ledger ~path scale with
        | Ok () ->
            Format.printf "wrote %s@." path;
            `Ok ()
        | Error msg -> die "report: %s" msg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Reproduce the paper's evaluation as one markdown report: Tables \
          1-4 and Figures 3-6 in paper order, each with its measured \
          summary and the paper's values, ending with a trend section over \
          the hexwatch ledger when one is present ($(b,--no-ledger) omits \
          it).  $(b,--scale) sets the problem grid of Figures 3, 5 and 6.")
    Term.(ret (const run $ scale_arg $ out $ ledger_arg $ no_ledger_arg))

(* --- history (hexwatch trend tables) ---------------------------------------- *)

let history_cmd =
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Only entries of this kind (validate | campaign | tune | index \
             | serve | audit | alert, or bench in older ledgers such as \
             LEDGER_seed.jsonl — $(b,audit) rows are the serving drift \
             monitor's verdicts; useful columns: rel_err, in_band, \
             argmin_match).")
  in
  let last =
    Arg.(
      value & opt int 20
      & info [ "last" ] ~docv:"N"
          ~doc:"Show only the most recent N matching entries (0 = all).")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("table", `Table);
               ("markdown", `Markdown);
               ("json", `Json);
               ("csv", `Csv);
             ])
          `Table
      & info [ "format" ] ~docv:"table|markdown|json|csv"
          ~doc:
            "Output format.  $(b,csv) emits RFC-4180 rows with full-seconds \
             ISO8601 timestamps and raw (unscaled) metric values, for \
             spreadsheets and external trend tooling.")
  in
  let since =
    Arg.(
      value
      & opt (some string) None
      & info [ "since" ] ~docv:"ISO8601|REV"
          ~doc:
            "Only entries from this point on: an ISO8601 date/time \
             ($(b,2026-08-01), $(b,2026-08-01T12:30:00), UTC) keeps \
             entries stamped at or after it; a git rev keeps the first \
             entry recorded at that rev and everything after.")
  in
  let columns =
    Arg.(
      value
      & opt (some string) None
      & info [ "columns" ] ~docv:"C1,C2,..."
          ~doc:
            "Comma-separated metric columns (default: rmse_top, rmse_all, \
             argmin_quality, points_per_sec, cache_hit_rate, \
             cold_sweep_points_per_sec).  A column renders only if some \
             entry carries it.")
  in
  let run ledger kind last format columns since =
    match Obs.Ledger.load ~path:ledger with
    | Error msg -> die "history: %s" msg
    | Ok { Obs.Ledger.entries; corrupt_lines; unknown_schema } -> (
        if corrupt_lines > 0 || unknown_schema > 0 then
          Format.eprintf
            "hexwatch: %s: skipped %d corrupt line(s) and %d record(s) with \
             an unknown schema version@."
            ledger corrupt_lines unknown_schema;
        let entries = Obs.Ledger.filter ?kind entries in
        let entries =
          match since with
          | None -> Ok entries
          | Some spec -> H.History.since spec entries
        in
        match entries with
        | Error msg -> die "history: %s" msg
        | Ok entries ->
            let entries =
              if last > 0 then Obs.Ledger.latest last entries else entries
            in
            if entries = [] then
              Format.eprintf "hexwatch: %s: no matching entries@." ledger;
            let columns = Option.map (String.split_on_char ',') columns in
            (match format with
            | `Table -> print_string (H.History.render ?columns entries)
            | `Markdown -> print_string (H.History.markdown ?columns entries)
            | `Json ->
                print_endline (Minijson.render (H.History.json entries))
            | `Csv -> print_string (H.History.csv ?columns entries));
            `Ok ())
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Render the hexwatch run ledger as a trend table: one row per \
          recorded run (validate, campaign, tune, index, serve), oldest \
          first, with the accuracy and throughput metrics as columns.  \
          Corrupt ledger lines are skipped with a count on stderr, never \
          fatal.")
    Term.(
      ret (const run $ ledger_arg $ kind $ last $ format $ columns $ since))

(* --- watch (hexlens regression observatory) --------------------------------- *)

let watch_cmd =
  let ci =
    Arg.(
      value & flag
      & info [ "ci" ]
          ~doc:
            "Gate mode: exit non-zero if any regression alert fires.  \
             Improvements (good-direction changepoints) never fail the \
             gate.")
  in
  let rotate_mb =
    Arg.(
      value
      & opt (some float) None
      & info [ "rotate-mb" ] ~docv:"MB"
          ~doc:
            "Before scanning, rotate the ledger aside (to \
             $(i,FILE.YYYYMMDDTHHMMSSZ)) if it exceeds MB megabytes.")
  in
  let rotate_days =
    Arg.(
      value
      & opt (some float) None
      & info [ "rotate-days" ] ~docv:"D"
          ~doc:
            "Before scanning, rotate the ledger aside if its first record \
             is older than D days (judged from the record timestamps, not \
             the file mtime).")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Before scanning, rewrite the ledger keeping only the latest \
             record per (kind, label-set) identity (req_id excluded).  \
             Lossy for trends — use after rotation or once the window has \
             been mined.")
  in
  let run ledger no_ledger ci rotate_mb rotate_days compact =
    let lifecycle =
      let ( let* ) = Result.bind in
      let* () =
        if rotate_mb = None && rotate_days = None then Ok ()
        else
          let max_bytes =
            Option.map (fun mb -> int_of_float (mb *. 1048576.0)) rotate_mb
          in
          let max_age_s = Option.map (fun d -> d *. 86400.0) rotate_days in
          match Obs.Ledger.rotate ~path:ledger ?max_bytes ?max_age_s () with
          | Ok None -> Ok ()
          | Ok (Some dest) ->
              Format.eprintf "hexlens: rotated %s -> %s@." ledger dest;
              Ok ()
          | Error msg -> Error ("rotate: " ^ msg)
      in
      if not compact then Ok ()
      else if not (Sys.file_exists ledger) then Ok ()
      else
        match Obs.Ledger.compact ~path:ledger () with
        | Ok (kept, dropped) ->
            Format.eprintf "hexlens: compacted %s: kept %d, dropped %d@."
              ledger kept dropped;
            Ok ()
        | Error msg -> Error ("compact: " ^ msg)
    in
    match lifecycle with
    | Error msg -> die "watch: %s" msg
    | Ok () when not (Sys.file_exists ledger) ->
        (* a just-rotated (or never-written) ledger is an empty, quiet one *)
        Printf.printf "hexlens: %s: no ledger — 0 series, 0 alerts\n" ledger;
        `Ok ()
    | Ok () -> (
        match Obs.Ledger.load ~path:ledger with
        | Error msg -> die "watch: %s" msg
        | Ok { Obs.Ledger.entries; corrupt_lines; unknown_schema } ->
            if corrupt_lines > 0 || unknown_schema > 0 then
              Format.eprintf
                "hexwatch: %s: skipped %d corrupt line(s) and %d record(s) \
                 with an unknown schema version@."
                ledger corrupt_lines unknown_schema;
            let verdicts = Obs.Alert.scan entries in
            let tab =
              Tabulate.create
                [
                  ("series", Tabulate.Left);
                  ("n", Tabulate.Right);
                  ("median", Tabulate.Right);
                  ("mad sigma", Tabulate.Right);
                  ("last", Tabulate.Right);
                  ("ewma z", Tabulate.Right);
                  ("ph up", Tabulate.Right);
                  ("ph down", Tabulate.Right);
                  ("verdict", Tabulate.Left);
                ]
            in
            let verdict_cell (v : Obs.Alert.verdict) =
              match v.Obs.Alert.v_fired with
              | Some f ->
                  Printf.sprintf "%s %s %s"
                    (if f.Obs.Alert.f_regression then "ALERT" else "improved")
                    f.Obs.Alert.f_detector
                    (Obs.Alert.direction_to_string f.Obs.Alert.f_direction)
              | None ->
                  if v.Obs.Alert.v_judged then "ok"
                  else
                    Printf.sprintf "thin (n<%d)"
                      Obs.Alert.default_spec.Obs.Alert.min_samples
            in
            let tab =
              List.fold_left
                (fun tab (v : Obs.Alert.verdict) ->
                  Tabulate.add_row tab
                    [
                      v.Obs.Alert.v_key;
                      string_of_int v.Obs.Alert.v_n;
                      Tabulate.float_cell v.Obs.Alert.v_median;
                      Tabulate.float_cell v.Obs.Alert.v_mad_sigma;
                      Tabulate.float_cell v.Obs.Alert.v_last;
                      Printf.sprintf "%+.2f" v.Obs.Alert.v_ewma_z;
                      Printf.sprintf "%.2f" v.Obs.Alert.v_ph_up;
                      Printf.sprintf "%.2f" v.Obs.Alert.v_ph_down;
                      verdict_cell v;
                    ])
                tab verdicts
            in
            if verdicts <> [] then Tabulate.print tab;
            let judged =
              List.length
                (List.filter (fun v -> v.Obs.Alert.v_judged) verdicts)
            in
            let regressions = List.filter Obs.Alert.regression verdicts in
            let improvements = List.filter Obs.Alert.improvement verdicts in
            (* firing verdicts become ledger records themselves — the alert
               trail is provenance too (Series.extract skips them on the
               next scan, so alerts never feed back into detection) *)
            List.iter
              (fun v ->
                ledger_record ~ledger ~no_ledger (Obs.Alert.to_entry v))
              (regressions @ improvements);
            Printf.printf
              "hexlens: %d series (%d judged), %d regression alert(s), %d \
               improvement(s)\n"
              (List.length verdicts) judged
              (List.length regressions)
              (List.length improvements);
            if ci && regressions <> [] then
              die "watch --ci: %d regression alert(s) firing"
                (List.length regressions)
            else `Ok ())
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "hexlens: scan the run ledger for cross-run regressions.  Every \
          watched metric series (bench throughput, serve latency, accuracy, \
          audit verdicts) is judged by robust statistics — median/MAD \
          envelope, EWMA drift, and a two-sided Page–Hinkley changepoint \
          detector over winsorised robust z-scores, with fixed thresholds \
          (a series of fewer than 8 runs is shown but not judged; \
          Page–Hinkley fires at 10 and the EWMA at 3 robust z-units) — so \
          one outlier run stays quiet while a sustained shift fires.  Firing verdicts are \
          appended back to the ledger as $(b,alert) records (suppress with \
          $(b,--no-ledger)); $(b,--ci) turns regressions into a failing \
          exit for the CI trend gate.  $(b,--rotate-mb)/$(b,--rotate-days) \
          and $(b,--compact) manage the ledger's lifecycle first.")
    Term.(
      ret
        (const run $ ledger_arg $ no_ledger_arg $ ci $ rotate_mb $ rotate_days
       $ compact))

(* --- explain (hexlens attribution diffing) ----------------------------------- *)

let explain_cmd =
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Only consider records of this kind (typically $(b,audit)).  \
             Default: every eligible record.")
  in
  let a_arg =
    Arg.(
      value & opt int 1
      & info [ "a" ] ~docv:"N"
          ~doc:
            "Baseline side: Nth-newest eligible record (0 = newest).  \
             Default 1: the run before the latest.")
  in
  let b_arg =
    Arg.(
      value & opt int 0
      & info [ "b" ] ~docv:"N"
          ~doc:"Comparison side: Nth-newest eligible record (default 0, \
                the latest).")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"K=V"
          ~doc:
            "Only consider records carrying this label, e.g. \
             $(b,stencil=heat2d) or $(b,key=...) to diff two runs of the \
             same experiment.")
  in
  let run ledger kind a b label =
    let label =
      match label with
      | None -> Ok None
      | Some s -> (
          match String.index_opt s '=' with
          | Some i ->
              Ok
                (Some
                   ( String.sub s 0 i,
                     String.sub s (i + 1) (String.length s - i - 1) ))
          | None -> Error s)
    in
    match label with
    | Error s -> die "explain: --label %S is not K=V" s
    | Ok label -> (
        match Obs.Ledger.load ~path:ledger with
        | Error msg -> die "explain: %s" msg
        | Ok { Obs.Ledger.entries; _ } ->
            let eligible =
              List.filter H.Explain.eligible
                (Obs.Ledger.filter ?kind ?label entries)
            in
            let arr = Array.of_list eligible in
            let n = Array.length arr in
            if n = 0 then
              die
                "explain: %s: no eligible records — need attr.* metrics or \
                 arch/stencil/space/time/config labels (serve audit \
                 records carry both)"
                ledger
            else if a < 0 || a >= n || b < 0 || b >= n then
              die "explain: only %d eligible record(s); --a %d / --b %d out \
                   of range"
                n a b
            else
              let pick i = arr.(n - 1 - i) in
              (match H.Explain.render ~a:(pick a) ~b:(pick b) with
              | Ok text ->
                  print_string text;
                  `Ok ()
              | Error msg -> die "explain: %s" msg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "hexlens: diff two ledger records term by term through the \
          paper's Section-5 attribution.  Answers $(i,why) a prediction \
          moved: which component (compute, global-memory transfer, sync, \
          launch) dominates the delta, whether the max(m', c) decision \
          flipped between compute- and memory-bound, and whether the \
          chosen tile changed.  Components come from the record's stored \
          attr.* metrics (serve audits write them) or are recomputed from \
          its provenance labels via the analytical model; when both exist \
          they are cross-checked.")
    Term.(ret (const run $ ledger_arg $ kind $ a_arg $ b_arg $ label))

(* --- accuracy-compare (the accuracy regression gate) ------------------------ *)

let accuracy_compare_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed ACCURACY_baseline.json to judge against.")
  in
  let write_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "write" ] ~docv:"FILE"
          ~doc:
            "Write the freshly collected figures to FILE — how the \
             committed baseline is (re)generated after an intended model \
             change.")
  in
  let run scale baseline write jobs profile metrics =
    with_obs profile metrics @@ fun () ->
    if baseline = None && write = None then
      die "accuracy-compare: --baseline and/or --write is required"
    else
      let exec = Parsweep.default ~jobs () in
      let current = H.Accuracy.collect ~exec scale in
      if current.H.Accuracy.rows = [] then
        die "accuracy-compare: no experiment produced data at this scale"
      else begin
        print_string (H.Accuracy.render_table current);
        let written =
          match write with
          | None -> Ok ()
          | Some path -> (
              match H.Accuracy.write ~path current with
              | Ok () ->
                  Format.printf "wrote %s@." path;
                  Ok ()
              | Error msg -> Error msg)
        in
        match written with
        | Error msg -> die "accuracy-compare: %s" msg
        | Ok () -> (
            match baseline with
            | None -> `Ok ()
            | Some path -> (
                match H.Accuracy.load ~path with
                | Error msg -> die "accuracy-compare: %s" msg
                | Ok base ->
                    if base.H.Accuracy.scale <> scale then
                      die
                        "accuracy-compare: baseline %s was collected at \
                         scale %s, not %s"
                        path
                        (H.Experiments.scale_to_string base.H.Accuracy.scale)
                        (H.Experiments.scale_to_string scale)
                    else begin
                      let drifts = H.Accuracy.compare ~baseline:base current in
                      print_string (H.Accuracy.render_drifts drifts);
                      if drifts = [] then `Ok ()
                      else
                        die
                          "accuracy-compare: %d metric(s) drifted beyond \
                           tolerance (baseline %s)"
                          (List.length drifts) path
                    end))
      end
  in
  Cmd.v
    (Cmd.info "accuracy-compare"
       ~doc:
         "Re-collect the model-accuracy figures (RMSE bands, top-band \
          correlation, arg-min quality — Sections 5.3 and 6) for every \
          experiment at a scale and fail if any metric regressed against a \
          committed baseline by more than a fixed absolute tolerance (RMSE \
          over all points +0.10, top-band RMSE +0.02, top-band correlation \
          -0.05, arg-min quality -0.05).  Used by CI as the \
          accuracy-regression gate.")
    Term.(
      ret
        (const run $ scale_arg $ baseline_arg $ write_arg $ jobs_arg
       $ profile_arg $ metrics_arg))

(* --- hexserve (index / serve / ask) ------------------------------------------ *)

module Serve = Hextime_serve

let socket_arg =
  Arg.(
    value
    & opt string "hextime.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the advisor serves on.")

let index_path_arg =
  Arg.(
    value
    & opt string "hextime-index.json"
    & info [ "index" ] ~docv:"FILE" ~doc:"Arg-min index file.")

let index_cmd =
  let run scale out jobs profile metrics ledger no_ledger =
    with_obs profile metrics @@ fun () ->
    let exec = Parsweep.default ~jobs () in
    let t0 = Unix.gettimeofday () in
    let experiments = H.Experiments.all scale in
    let outcomes, stats =
      Parsweep.map ~label:"index build" exec
        ~f:(fun (e : H.Experiments.t) ->
          Serve.Advisor.solve e.H.Experiments.arch e.H.Experiments.problem)
        experiments
    in
    let index = Serve.Index.create () in
    let failed = ref 0 in
    List.iter2
      (fun (e : H.Experiments.t) outcome ->
        match outcome with
        | Ok (Ok answer) ->
            Serve.Index.add index
              (Serve.Index.entry_of_answer e.H.Experiments.arch
                 e.H.Experiments.problem answer)
        | Ok (Error msg) | Error msg ->
            incr failed;
            Format.eprintf "hexserve: %s: %s@." (H.Experiments.id e) msg)
      experiments outcomes;
    let elapsed_s = Unix.gettimeofday () -. t0 in
    match Serve.Index.save index ~path:out with
    | Error msg -> die "index: %s" msg
    | Ok () ->
        Format.printf "sweep: %a@." Parsweep.pp_stats stats;
        Format.printf "indexed %d experiment(s) (%d failed) in %.2f s -> %s@."
          (Serve.Index.size index) !failed elapsed_s out;
        ledger_record ~ledger ~no_ledger
          (Obs.Ledger.make ~kind:"index" ~code_version:Serve.Advisor.code_version
             ~labels:
               [
                 ("scale", H.Experiments.scale_to_string scale);
                 ("output", out);
                 ("jobs", string_of_int jobs);
               ]
             ~metrics:
               (sweep_stat_metrics ~elapsed_s stats
               @ [
                   ("entries", float_of_int (Serve.Index.size index));
                   ("failed", float_of_int !failed);
                 ])
             ~snapshot:(metrics_snapshot ()) ());
        if !failed > 0 then die "index: %d experiment(s) failed" !failed
        else `Ok ()
  in
  let out =
    Arg.(
      value
      & opt string "hextime-index.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Where to write the index: a header line, then one JSON line \
             per entry, sorted by key.")
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Precompute the arg-min index: solve the tile-advisory problem \
          for every experiment at a scale (through the parallel pool) and \
          write the digest-keyed index file that $(b,hextime serve) \
          answers warm queries from and appends its cold answers to.")
    Term.(
      ret
        (const run $ scale_arg $ out $ jobs_arg $ profile_arg $ metrics_arg
       $ ledger_arg $ no_ledger_arg))

let serve_cmd =
  let max_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Exit after answering N ask requests (smoke tests and CI; \
             default: serve until $(b,shutdown)).")
  in
  let no_index =
    Arg.(
      value & flag
      & info [ "no-index" ]
          ~doc:
            "Serve without an index file: every first ask is a cold miss, \
             answers live only in memory.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one structured JSONL record per answered request \
             (req_id, key, warm/cold, latency, result digest or error).")
  in
  let slow_us =
    Arg.(
      value & opt float infinity
      & info [ "slow-us" ] ~docv:"US"
          ~doc:
            "Slow-query threshold: a cold solve slower than this logs its \
             Section-5 cost attribution in the access log (default: \
             never).")
  in
  let audit_rate =
    Arg.(
      value & opt int 0
      & info [ "audit-rate" ] ~docv:"N"
          ~doc:
            "Drift monitor: re-verify every Nth warm answer against the \
             exhaustive arg-min, off the request path (0 disables).  \
             Verdicts append $(b,audit) ledger records and drive the \
             $(b,serve.drift_alarm) gauge, which trips while fewer than \
             99% of the last 64 audited answers are in band.")
  in
  let audit_cold =
    Arg.(
      value & flag
      & info [ "audit-cold" ]
          ~doc:"Drift monitor: also audit every cold-miss answer.")
  in
  let run socket index_path no_index max_requests access_log slow_us
      audit_rate audit_cold jobs profile metrics ledger no_ledger =
    with_obs profile metrics @@ fun () ->
    let exec = Parsweep.default ~jobs () in
    let index_path = if no_index then None else Some index_path in
    let t0 = Unix.gettimeofday () in
    let on_ready () =
      Format.eprintf "hexserve: listening on %s (index: %s)@." socket
        (Option.value ~default:"none" index_path)
    in
    match
      Serve.Server.run ?index_path ~exec ?max_requests ~on_ready
        ?access_log_path:access_log ~slow_us ~audit_rate ~audit_cold
        ?ledger_path:(if no_ledger then None else Some ledger)
        ~socket_path:socket ()
    with
    | exception Unix.Unix_error (err, fn, arg) ->
        die "serve: %s(%s): %s" fn arg (Unix.error_message err)
    | summary ->
        let elapsed_s = Unix.gettimeofday () -. t0 in
        Format.printf
          "served %d request(s): %d warm, %d cold, %d error(s) in %.2f s@."
          summary.Serve.Server.requests summary.Serve.Server.warm_hits
          summary.Serve.Server.cold_misses summary.Serve.Server.errors
          elapsed_s;
        if summary.Serve.Server.audits > 0 then
          Format.printf "audited %d answer(s): %d out of band%s@."
            summary.Serve.Server.audits
            summary.Serve.Server.audits_out_of_band
            (if summary.Serve.Server.drift_alarm then
               " — DRIFT ALARM"
             else "");
        if summary.Serve.Server.drift_alarm then
          die
            "serve: drift alarm tripped (%d/%d audited answers out of band)"
            summary.Serve.Server.audits_out_of_band
            summary.Serve.Server.audits
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tile-advisor service on a Unix-domain socket: warm \
          queries are answered from the precomputed arg-min index in O(1); \
          concurrent cold misses are batched through the parallel pool, \
          answered exactly, and appended to the index file before the \
          reply.  hexpulse telemetry — a JSONL access log and the online \
          drift monitor — hangs off the $(b,--access-log) and \
          $(b,--audit-*) flags; the $(b,stats) frame serves the metrics \
          ($(b,hextime metrics-verify), $(b,hextime dash)).  Each run, \
          however it ends, appends one $(b,serve) record to the ledger.")
    Term.(
      ret
        (const run $ socket_arg $ index_path_arg $ no_index $ max_requests
       $ access_log $ slow_us $ audit_rate $ audit_cold $ jobs_arg
       $ profile_arg $ metrics_arg $ ledger_arg $ no_ledger_arg))

let ask_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"text|json" ~doc:"Output format.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Recompute the exhaustive-sweep arg-min in-process and fail \
             unless the served answer matches it bit-exactly (the \
             cold-path correctness oracle; slow).")
  in
  let wait =
    Arg.(
      value & opt float 5.0
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:"How long to keep retrying the connect while the server \
                starts up.")
  in
  let config_equal (a : Config.t) (b : Config.t) =
    a.Config.t_t = b.Config.t_t && a.Config.t_s = b.Config.t_s
    && a.Config.threads = b.Config.threads
  in
  let run arch stencil space time socket format check wait =
    let attempts = max 1 (int_of_float (wait /. 0.05)) in
    match Serve.Client.connect ~attempts ~socket_path:socket () with
    | Error msg -> die "ask: %s" msg
    | Ok fd -> (
        let reply =
          Fun.protect
            ~finally:(fun () -> Serve.Client.close fd)
            (fun () ->
              Serve.Client.ask fd ~arch:arch.Gpu.Arch.name
                ~stencil:stencil.Stencil.name ~space ~time)
        in
        match reply with
        | Error msg -> die "ask: %s" msg
        | Ok answer -> (
            let { Serve.Proto.source; entry; latency_us; req_id; server } =
              answer
            in
            (match format with
            | `Json ->
                (* passes the server-assigned req_id and the uptime_s /
                   index_entries / requests_in_flight vitals through
                   verbatim *)
                print_endline
                  (Minijson.render_compact
                     (Serve.Proto.reply_to_json (Serve.Proto.Answer answer)))
            | `Text ->
                Format.printf
                  "recommended: %a  (Talg %.4e s, %s answer, %.0f us \
                   server-side)@."
                  Config.pp entry.Serve.Index.e_config
                  entry.Serve.Index.e_talg
                  (Serve.Proto.source_to_string source)
                  latency_us;
                if req_id <> "" then
                  Format.printf "server: req %s%s@." req_id
                    (String.concat ""
                       (List.map
                          (fun (k, v) -> Printf.sprintf ", %s %.0f" k v)
                          server)));
            if not check then `Ok ()
            else
              match problem_of stencil space time with
              | Error msg -> die "check: %s" msg
              | Ok problem -> (
                  let params = H.Microbench.params arch in
                  let citer = H.Microbench.citer arch stencil in
                  let space_eval =
                    Optimizer.evaluate_space params ~citer problem
                  in
                  if space_eval = [] then die "check: empty feasible space"
                  else
                    let best = Optimizer.best space_eval in
                    match Serve.Advisor.config_of_shape best.Optimizer.shape with
                    | Error msg -> die "check: %s" msg
                    | Ok expected ->
                        let talg = best.Optimizer.prediction.Model.talg in
                        if
                          config_equal expected entry.Serve.Index.e_config
                          && talg = entry.Serve.Index.e_talg
                        then begin
                          Format.printf
                            "check: matches the exhaustive arg-min (%d \
                             feasible shapes)@."
                            (List.length space_eval);
                          `Ok ()
                        end
                        else
                          die
                            "check: served %s (Talg %.6e) but the exhaustive \
                             arg-min is %s (Talg %.6e)"
                            (Config.id entry.Serve.Index.e_config)
                            entry.Serve.Index.e_talg (Config.id expected) talg)))
  in
  Cmd.v
    (Cmd.info "ask"
       ~doc:
         "Query a running $(b,hextime serve) for the recommended tile \
          configuration of one problem instance.")
    Term.(
      ret
        (const run $ arch_arg $ stencil_arg $ space_arg $ time_arg $ socket_arg
       $ format $ check $ wait))

(* --- metrics-verify (the scrape gate) ---------------------------------------- *)

let required_serve_metrics =
  [
    "serve.requests";
    "serve.warm_hits";
    "serve.cold_misses";
    "serve.errors";
    "serve.warm_seconds";
    "serve.cold_seconds";
    "serve.uptime_s";
    "serve.index_entries";
    "serve.drift_alarm";
  ]

let metrics_verify_cmd =
  let extra_require =
    Arg.(
      value
      & opt (some string) None
      & info [ "require" ] ~docv:"M1,M2,..."
          ~doc:
            "Comma-separated registry names (e.g. $(b,serve.audits)) that \
             must be present, in addition to the serving built-ins.")
  in
  let expect_gauges =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "expect-gauge" ] ~docv:"NAME=VALUE"
          ~doc:
            "Fail unless gauge NAME holds exactly this value (repeatable) \
             — e.g. $(b,--expect-gauge serve.drift_alarm=0).")
  in
  let run socket extra_require expect =
    let require =
      required_serve_metrics
      @ Option.fold ~none:[] ~some:(String.split_on_char ',') extra_require
    in
    let stats =
      Result.bind (Serve.Client.connect ~socket_path:socket ()) (fun fd ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close fd)
            (fun () -> Serve.Client.stats fd))
    in
    match
      Result.bind stats (fun (json, _vitals) ->
          Obs.Metrics.check_json ~require ~expect json)
    with
    | Error msg -> die "metrics-verify: %s" msg
    | Ok n ->
        Format.printf "metrics-verify: ok — %d metrics%s@." n
          (if expect = [] then ""
           else Printf.sprintf ", %d expectation(s) met" (List.length expect));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "metrics-verify"
       ~doc:
         "Read a running $(b,hextime serve)'s metrics over its $(b,stats) \
          frame and check them: the serving metrics and every name \
          given to $(b,--require) are present, each $(b,--expect-gauge) \
          holds exactly, counters are non-negative and each histogram's \
          bucket counts sum to its count.  CI's scrape gate.")
    Term.(ret (const run $ socket_arg $ extra_require $ expect_gauges))

(* --- dash (TTY serving dashboard) -------------------------------------------- *)

let dash_cmd =
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:"Redraw every SECONDS until interrupted.")
  in
  (* A stats snapshot's non-finite numbers ("NaN" quantiles of an empty
     histogram) are strings, which Minijson.number reads as absent: "-". *)
  let render_live json =
    let num path =
      Option.bind
        (List.fold_left
           (fun j k -> Option.bind j (Minijson.member k))
           (Some json) path)
        Minijson.number
    in
    let cell = function
      | Some v when Float.is_integer v && Float.abs v < 1e15 ->
          Printf.sprintf "%.0f" v
      | Some v -> Printf.sprintf "%.3g" v
      | None -> "-"
    in
    let c name = cell (num [ "counters"; name ]) in
    let g name = cell (num [ "gauges"; name ]) in
    let warm_us q =
      cell
        (Option.map
           (fun s -> s *. 1e6)
           (num [ "histograms"; "serve.warm_seconds"; q ]))
    in
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    line "hexserve — up %s s, %s index entries, %s in flight"
      (g "serve.uptime_s") (g "serve.index_entries")
      (g "serve.requests_in_flight");
    line "requests   %8s   warm %8s   cold %8s   errors %8s"
      (c "serve.requests") (c "serve.warm_hits") (c "serve.cold_misses")
      (c "serve.errors");
    line "warm p50   %8s us        p99 %8s us" (warm_us "p50") (warm_us "p99");
    line "drift      audits %s (%s out of band), in-band ratio %s, ALARM %s"
      (c "serve.audits") (c "serve.audits_out_of_band")
      (g "serve.audit_inband_ratio") (g "serve.drift_alarm");
    line "access log %s lines" (c "serve.access_log_lines");
    Buffer.contents b
  in
  let render_ledger path =
    match Obs.Ledger.load ~path with
    | Error msg -> Error msg
    | Ok { Obs.Ledger.entries; _ } -> (
        let serve = Obs.Ledger.filter ~kind:"serve" entries in
        let audits = Obs.Ledger.filter ~kind:"audit" entries in
        let alerts = Obs.Ledger.filter ~kind:"alert" entries in
        match (serve, audits, alerts) with
        | [], [], [] -> Error (path ^ ": no serve, audit or alert records")
        | serve, audits, alerts ->
            let b = Buffer.create 1024 in
            let line fmt =
              Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
            in
            line "hexserve (offline — from ledger %s)" path;
            (match Obs.Ledger.latest 1 serve with
            | [ e ] ->
                let m name =
                  match Obs.Ledger.metric e name with
                  | Some v -> Printf.sprintf "%.0f" v
                  | None -> "-"
                in
                line
                  "last run:  %s requests (%s warm, %s cold, %s errors), %s \
                   audits (%s out of band), drift alarm %s"
                  (m "requests") (m "warm_hits") (m "cold_misses")
                  (m "errors") (m "audits") (m "audits_out_of_band")
                  (m "drift_alarm")
            | _ -> ());
            let oob =
              List.length
                (List.filter
                   (fun e -> Obs.Ledger.metric e "in_band" = Some 0.0)
                   audits)
            in
            if audits <> [] then
              line "audit records: %d total, %d out of band"
                (List.length audits) oob;
            (* hexlens panel: what `hextime watch` has concluded about the
               trends in this same ledger *)
            if alerts <> [] then begin
              let regressions =
                List.filter
                  (fun e ->
                    List.mem ("verdict", "regression") e.Obs.Ledger.labels)
                  alerts
              in
              line "alert records: %d total, %d regression(s)"
                (List.length alerts)
                (List.length regressions);
              List.iter
                (fun e ->
                  let l name =
                    Option.value ~default:"-"
                      (List.assoc_opt name e.Obs.Ledger.labels)
                  in
                  let stat =
                    match Obs.Ledger.metric e "stat" with
                    | Some v -> Printf.sprintf "%.2f" v
                    | None -> "-"
                  in
                  line "  %s %s: %s %s (stat %s)"
                    (H.History.timestamp e.Obs.Ledger.time_unix)
                    (l "series") (l "verdict") (l "detector") stat)
                (Obs.Ledger.latest 3 alerts)
            end;
            Ok (Buffer.contents b))
  in
  let draw socket ledger =
    match Serve.Client.connect ~socket_path:socket () with
    | Ok fd ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close fd)
          (fun () -> Serve.Client.stats fd)
        |> Result.map (fun (json, _vitals) -> render_live json)
    | Error _ -> render_ledger ledger
  in
  let run socket ledger watch =
    match watch with
    | None -> (
        match draw socket ledger with
        | Ok text ->
            print_string text;
            `Ok ()
        | Error msg -> die "dash: %s" msg)
    | Some interval ->
        let interval = Float.max 0.1 interval in
        let rec loop () =
          (* clear screen + home, like watch(1) *)
          print_string "\027[2J\027[H";
          (match draw socket ledger with
          | Ok text -> print_string text
          | Error msg -> Printf.printf "dash: %s\n" msg);
          Printf.printf "\n(every %.1fs — ctrl-c to quit)\n%!" interval;
          ignore (Unix.select [] [] [] interval);
          loop ()
        in
        loop ()
  in
  Cmd.v
    (Cmd.info "dash"
       ~doc:
         "One-screen serving dashboard: read a live $(b,hextime serve) \
          over the $(b,stats) frame (vitals, latency quantiles, drift \
          monitor) — or, when the socket is down, summarize the last serve \
          run, audit verdicts and hexlens alert records from the hexwatch \
          ledger.  $(b,--watch) redraws continuously.")
    Term.(ret (const run $ socket_arg $ ledger_arg $ watch))

let main_cmd =
  let doc =
    "analytical time modeling and optimal tile-size selection for GPGPU \
     stencils (PPoPP'17 reproduction)"
  in
  Cmd.group
    (Cmd.info "hextime" ~version:"1.0.0" ~doc)
    [
      predict_cmd;
      profile_cmd;
      trace_verify_cmd;
      tune_cmd;
      strategies_cmd;
      codegen_cmd;
      lint_cmd;
      prove_cmd;
      naive_cmd;
      solve_cmd;
      validate_cmd;
      campaign_cmd;
      report_cmd;
      ampl_cmd;
      accuracy_compare_cmd;
      history_cmd;
      watch_cmd;
      explain_cmd;
      index_cmd;
      serve_cmd;
      ask_cmd;
      metrics_verify_cmd;
      dash_cmd;
    ]

let () =
  (* hexwatch heartbeats: on for interactive stderr, off when piped/CI,
     overridable with HEXTIME_PROGRESS=0|1.  Rendering goes to stderr
     only, so machine-consumed stdout stays byte-identical either way. *)
  Obs.Progress.auto_enable ();
  exit (Cmd.eval main_cmd)
