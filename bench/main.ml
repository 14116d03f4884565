(* The benchmark harness: prints the paper's evaluation through
   [Harness.Report] (the same markdown as `hextime report`), adds the
   Figure 3 scatter and the design-choice ablations called out in
   DESIGN.md, and exports the throughput figures to BENCH_hextime.json.

   Scale is controlled by the HEXTIME_SCALE environment variable
   (ci | quick | paper, default quick).  The `paper` scale runs the paper's
   full 128-experiment grid; `quick` runs a representative subset with
   identical code paths. *)

module Gpu = Hextime_gpu
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Model = Hextime_core.Model
module Runner = Hextime_tileopt.Runner
module Optimizer = Hextime_tileopt.Optimizer
module H = Hextime_harness
module Parsweep = Hextime_parsweep.Parsweep
module Stats = Hextime_prelude.Stats
module Tabulate = Hextime_prelude.Tabulate

let scale =
  match Sys.getenv_opt "HEXTIME_SCALE" with
  | None -> H.Experiments.Quick
  | Some s -> (
      match H.Experiments.scale_of_string s with
      | Ok sc -> sc
      | Error msg ->
          prerr_endline ("HEXTIME_SCALE: " ^ msg);
          exit 2)

(* observability rides on env vars here (the bench takes no arguments):
   HEXTIME_PROFILE=FILE writes a Chrome trace of the whole run,
   HEXTIME_METRICS=1 prints the metrics registry to stderr at exit *)
let () =
  (match Sys.getenv_opt "HEXTIME_PROFILE" with
  | Some path when path <> "" ->
      Hextime_obs.Trace.enable ();
      at_exit (fun () ->
          try
            Hextime_obs.Trace.write_file path
              ~extra:
                [
                  ( "metrics",
                    Hextime_obs.Metrics.to_json (Hextime_obs.Metrics.snapshot ())
                  );
                ]
              (Hextime_obs.Trace.events ());
            Printf.eprintf "hexscope: wrote %s (%d span events)\n%!" path
              (Hextime_obs.Trace.num_events ())
          with Sys_error msg -> Printf.eprintf "hexscope: %s\n%!" msg)
  | _ -> ());
  match Sys.getenv_opt "HEXTIME_METRICS" with
  | None | Some ("" | "0") -> ()
  | Some _ ->
      at_exit (fun () ->
          prerr_string
            (Hextime_obs.Metrics.render (Hextime_obs.Metrics.snapshot ())))

(* every sweep below runs through the parallel engine; jobs follow
   HEXTIME_JOBS *)
let exec = Parsweep.default ()
let sweep_points e = (H.Sweep.baseline ~exec e).H.Sweep.points

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let () =
  Printf.printf
    "hextime benchmark harness — PPoPP'17 reproduction (scale: %s)\n"
    (H.Experiments.scale_to_string scale)

(* --- Tables 1-4 and Figures 3-6 ------------------------------------------ *)

let () =
  section "Paper evaluation: Tables 1-4 and Figures 3-6 (hextime report)";
  print_string (H.Report.markdown scale)

(* --- Figure 3: one panel as a scatter plot and a CSV --------------------- *)

let () =
  section "Figure 3: predicted vs measured, one panel";
  let experiment =
    {
      H.Experiments.arch = Gpu.Arch.gtx980;
      problem =
        Problem.make Stencil.heat2d
          ~space:(match scale with
                  | H.Experiments.Ci -> [| 1024; 1024 |]
                  | _ -> [| 8192; 8192 |])
          ~time:(match scale with H.Experiments.Ci -> 256 | _ -> 8192);
    }
  in
  let full = H.Sweep.baseline ~exec experiment in
  let sweep = full.H.Sweep.points in
  Format.printf "sweep: %d points kept, %a@." (List.length sweep)
    H.Sweep.pp_drops full;
  print_newline ();
  print_string
    (H.Scatter.render
       ~title:
         (Printf.sprintf
            "heat2d on gtx980 (%s): predicted (x) vs measured (y), log-log"
            (H.Experiments.id experiment))
       (H.Validation.scatter sweep));
  (match
     H.Export.write_file ~path:"fig3_heat2d_gtx980.csv"
       (H.Export.sweep_csv sweep)
   with
  | Ok () -> print_endline "wrote fig3_heat2d_gtx980.csv"
  | Error e -> print_endline ("csv export failed: " ^ e))

(* --- Accuracy across problem sizes ----------------------------------------- *)

let () =
  section "Model accuracy across problem sizes (heat2d on GTX 980)";
  let sizes =
    match scale with
    | H.Experiments.Ci -> [ ([| 1024; 1024 |], 256) ]
    | H.Experiments.Quick -> H.Experiments.sizes_2d H.Experiments.Quick
    | H.Experiments.Paper -> Hextime_stencil.Problem.paper_sizes_2d
  in
  let t =
    Tabulate.create
      [
        ("problem size", Tabulate.Left);
        ("RMSE all", Tabulate.Right);
        ("RMSE top 20%", Tabulate.Right);
        ("best GF/s", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (space, time) ->
        let e =
          {
            H.Experiments.arch = Gpu.Arch.gtx980;
            problem = Problem.make Stencil.heat2d ~space ~time;
          }
        in
        match sweep_points e with
        | [] -> t
        | points ->
            let s = H.Validation.analyze points in
            Tabulate.add_row t
              [
                Problem.id e.H.Experiments.problem;
                Printf.sprintf "%.0f%%" (100.0 *. s.H.Validation.rmse_all);
                Printf.sprintf "%.1f%%" (100.0 *. s.H.Validation.rmse_top);
                Printf.sprintf "%.1f" s.H.Validation.best_gflops;
              ])
      t sizes
  in
  Tabulate.print t;
  print_endline
    "(the top-band accuracy is stable across the size grid — the model's \
     per-wavefront structure scales with T and S by construction)"

(* --- Section 6: candidate-set sizes -------------------------------------- *)

let () =
  section "Section 6: size of the within-10% candidate set";
  let t =
    Tabulate.create
      [
        ("experiment", Tabulate.Left);
        ("feasible shapes", Tabulate.Right);
        ("within 10%", Tabulate.Right);
        ("explored (capped)", Tabulate.Right);
      ]
  in
  let sizes =
    match scale with
    | H.Experiments.Ci -> [ ([| 512; 512 |], 128) ]
    | _ -> [ ([| 4096; 4096 |], 4096); ([| 8192; 8192 |], 8192) ]
  in
  let arch = Gpu.Arch.gtx980 in
  let params = H.Microbench.params arch in
  let t =
    List.fold_left
      (fun t stencil ->
        List.fold_left
          (fun t (space, time) ->
            let problem = Problem.make stencil ~space ~time in
            let citer = H.Microbench.citer arch stencil in
            let ev = Optimizer.evaluate_space params ~citer problem in
            let within = Optimizer.candidate_count ~frac:0.10 ev in
            Tabulate.add_row t
              [
                Problem.id problem;
                string_of_int (List.length ev);
                string_of_int within;
                string_of_int (min 200 within);
              ])
          t sizes)
      t
      [ Stencil.heat2d; Stencil.gradient2d ]
  in
  Tabulate.print t;
  print_endline
    "(paper: fewer than 200 points within 10% of Talg_min; our refined round \
     accounting flattens the landscape on some instances, so exploration is \
     capped at the 200 best-predicted shapes)"

(* --- Ablation: model variants -------------------------------------------- *)

let () =
  section "Ablation: refined vs verbatim model (DESIGN.md deviations)";
  let experiments =
    match scale with
    | H.Experiments.Ci -> [ (Stencil.heat2d, [| 1024; 1024 |], 256) ]
    | _ ->
        [
          (Stencil.heat2d, [| 8192; 8192 |], 8192);
          (Stencil.gradient2d, [| 4096; 4096 |], 4096);
          (Stencil.heat3d, [| 384; 384; 384 |], 128);
        ]
  in
  let arch = Gpu.Arch.gtx980 in
  let params = H.Microbench.params arch in
  let t =
    Tabulate.create
      [
        ("experiment", Tabulate.Left);
        ("RMSE top, refined", Tabulate.Right);
        ("RMSE top, verbatim", Tabulate.Right);
        ("RMSE all, refined", Tabulate.Right);
        ("RMSE all, verbatim", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (stencil, space, time) ->
        let problem = Problem.make stencil ~space ~time in
        let citer = H.Microbench.citer arch stencil in
        let e = { H.Experiments.arch; problem } in
        let points = sweep_points e in
        let top = H.Sweep.top_performing ~within:0.2 points in
        let rmse variant pts =
          Stats.rmse_relative
            (List.filter_map
               (fun (p : H.Sweep.point) ->
                 match
                   Model.predict ~variant params ~citer problem p.H.Sweep.config
                 with
                 | Ok pr ->
                     Some (pr.Model.talg, p.H.Sweep.measured.Runner.time_s)
                 | Error _ -> None)
               pts)
        in
        let pct x = Printf.sprintf "%.1f%%" (100.0 *. x) in
        Tabulate.add_row t
          [
            Problem.id problem;
            pct (rmse Model.Refined top);
            pct (rmse Model.Paper_verbatim top);
            pct (rmse Model.Refined points);
            pct (rmse Model.Paper_verbatim points);
          ])
      t experiments
  in
  Tabulate.print t;
  print_endline
    "(the two discretisation corrections matter most inside the top band, \
     where Equation 2's double ceiling overcharges ragged rounds)"

(* --- Time-tiling benefit (Section 1/2 motivation) ------------------------ *)

let () =
  section "Time-tiling benefit: tuned naive vs model-guided HHC";
  let cases =
    match scale with
    | H.Experiments.Ci -> [ (Stencil.heat2d, [| 1024; 1024 |], 256) ]
    | _ ->
        [
          (Stencil.heat2d, [| 4096; 4096 |], 1024);
          (Stencil.laplacian3d, [| 384; 384; 384 |], 128);
        ]
  in
  let t =
    Tabulate.create
      [
        ("experiment", Tabulate.Left);
        ("naive GF/s", Tabulate.Right);
        ("HHC (model-guided) GF/s", Tabulate.Right);
        ("speedup", Tabulate.Right);
      ]
  in
  let arch = Gpu.Arch.gtx980 in
  let params = H.Microbench.params arch in
  let t =
    List.fold_left
      (fun t (stencil, space, time) ->
        let problem = Problem.make stencil ~space ~time in
        let citer = H.Microbench.citer arch stencil in
        let ctx = { Hextime_tileopt.Strategies.arch; params; citer; problem } in
        match
          ( Hextime_tiling.Naive.best arch problem,
            Hextime_tileopt.Strategies.model_top10 ctx )
        with
        | Ok naive, Ok hhc ->
            Tabulate.add_row t
              [
                Problem.id problem;
                Printf.sprintf "%.1f" naive.Hextime_tiling.Naive.gflops;
                Printf.sprintf "%.1f"
                  hhc.Hextime_tileopt.Strategies.measurement
                    .Hextime_tileopt.Runner.gflops;
                Printf.sprintf "%.1fx"
                  (naive.Hextime_tiling.Naive.time_s
                  /. hhc.Hextime_tileopt.Strategies.measurement
                       .Hextime_tileopt.Runner.time_s);
              ]
        | Error e, _ | _, Error e -> Tabulate.add_row t [ Problem.id problem; e; "-"; "-" ])
      t cases
  in
  Tabulate.print t;
  print_endline
    "(without reuse along time the kernel re-streams the array every step \
     and is memory-bound: the motivation for hexagonal time tiling)"

(* --- Solver vs enumeration (Section 6.1) --------------------------------- *)

let () =
  section "Section 6.1: local non-linear solver vs exhaustive enumeration";
  let cases =
    match scale with
    | H.Experiments.Ci -> [ (Stencil.heat2d, [| 1024; 1024 |], 256) ]
    | _ ->
        [
          (Stencil.heat2d, [| 8192; 8192 |], 8192);
          (Stencil.gradient2d, [| 4096; 4096 |], 4096);
          (Stencil.heat3d, [| 384; 384; 384 |], 128);
        ]
  in
  let arch = Gpu.Arch.gtx980 in
  let params = H.Microbench.params arch in
  let t =
    Tabulate.create
      [
        ("experiment", Tabulate.Left);
        ("objective", Tabulate.Left);
        ("solver gap", Tabulate.Right);
        ("model evals", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (stencil, space, time) ->
        let problem = Problem.make stencil ~space ~time in
        let citer = H.Microbench.citer arch stencil in
        List.fold_left
          (fun t (label, variant, restarts) ->
            match
              Hextime_tileopt.Descent.solve ~variant ~restarts params ~citer
                problem
            with
            | Error e -> Tabulate.add_row t [ Problem.id problem; label; e; "-" ]
            | Ok sol ->
                let gap =
                  Hextime_tileopt.Descent.optimality_gap ~variant params ~citer
                    problem sol
                in
                Tabulate.add_row t
                  [
                    Problem.id problem;
                    label;
                    Printf.sprintf "%+.1f%%" (100.0 *. gap);
                    string_of_int sol.Hextime_tileopt.Descent.evaluations;
                  ])
          t
          [
            ("refined, 1 start", Model.Refined, 1);
            ("paper-verbatim, 1 start", Model.Paper_verbatim, 1);
            ("paper-verbatim, 8 starts", Model.Paper_verbatim, 8);
          ])
      t cases
  in
  Tabulate.print t;
  print_endline
    "(the paper found off-the-shelf NLP solvers 'somewhat disappointing' on \
     Equation 31; ceiling plateaus trap local search, which the verbatim \
     objective shows most clearly. Exhaustive enumeration stays the \
     production path.)"

(* --- Generality (Section 7): 1D and higher-order stencils ----------------- *)

let () =
  section "Section 7 (generality): validation beyond the paper's benchmarks";
  let cases =
    match scale with
    | H.Experiments.Ci ->
        [
          (Stencil.jacobi1d, [| 65536 |], 512);
          (Stencil.jacobi2d_order2, [| 1024; 1024 |], 256);
        ]
    | _ ->
        [
          (Stencil.jacobi1d, [| 1 lsl 22 |], 4096);
          (Stencil.jacobi2d_order2, [| 4096; 4096 |], 1024);
          (Stencil.heat3d_order2, [| 256; 256; 256 |], 64);
        ]
  in
  let arch = Gpu.Arch.gtx980 in
  let t =
    Tabulate.create
      [
        ("experiment", Tabulate.Left);
        ("points", Tabulate.Right);
        ("RMSE all", Tabulate.Right);
        ("RMSE top 20%", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (stencil, space, time) ->
        let problem = Problem.make stencil ~space ~time in
        let e = { H.Experiments.arch; problem } in
        match sweep_points e with
        | [] -> Tabulate.add_row t [ Problem.id problem; "0"; "-"; "-" ]
        | points ->
            let s = H.Validation.analyze points in
            Tabulate.add_row t
              [
                Problem.id problem;
                string_of_int s.H.Validation.points;
                Printf.sprintf "%.0f%%" (100.0 *. s.H.Validation.rmse_all);
                Printf.sprintf "%.1f%%" (100.0 *. s.H.Validation.rmse_top);
              ])
      t cases
  in
  Tabulate.print t;
  print_endline
    "(the machinery generalises over rank and order; order-2 2D keeps the \
     top-band signature. 1D rows and order-2 3D tiles are so small that \
     even their best configurations are barrier- or transfer-latency-bound \
     — regimes the optimistic model does not price, and which the paper's \
     order-1 2D/3D evaluation never enters)"

(* --- Campaign cost (Section 8) -------------------------------------------- *)

let () =
  section "Section 8: cost of the experimental campaign";
  (* always priced at paper scale: that is the claim being checked *)
  print_string
    (H.Campaign.render (H.Campaign.estimate ~exec H.Experiments.Paper));
  print_endline
    "(paper: 'these took many weeks of dedicated machine time', with \
     compilation 'a significant fraction of the total')"

(* --- Section 7: threads-per-block is empirically predictable --------------- *)

let () =
  section "Section 7: best thread count is stable across top shapes";
  let stencil, space, time =
    match scale with
    | H.Experiments.Ci -> (Stencil.heat2d, [| 1024; 1024 |], 256)
    | _ -> (Stencil.heat2d, [| 4096; 4096 |], 1024)
  in
  let arch = Gpu.Arch.gtx980 in
  let problem = Problem.make stencil ~space ~time in
  let params = H.Microbench.params arch in
  let citer = H.Microbench.citer arch stencil in
  let space_eval = Optimizer.evaluate_space params ~citer problem in
  let top_shapes =
    List.filteri (fun i _ -> i < 6) (Optimizer.within_fraction ~frac:0.10 space_eval)
  in
  let t =
    Tabulate.create
      [
        ("shape", Tabulate.Left);
        ("best threads", Tabulate.Right);
        ("GF/s at best", Tabulate.Right);
        ("GF/s at 64 threads", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (e : Optimizer.evaluated) ->
        let measure threads =
          match
            Config.make ~t_t:e.Optimizer.shape.Hextime_tileopt.Space.t_t
              ~t_s:e.Optimizer.shape.Hextime_tileopt.Space.t_s
              ~threads:[| threads |]
          with
          | Error _ -> None
          | Ok cfg -> (
              match Runner.measure arch problem cfg with
              | Ok m -> Some (threads, m.Runner.gflops)
              | Error _ -> None)
        in
        let results =
          List.filter_map measure Hextime_tileopt.Space.thread_candidates
        in
        match results with
        | [] -> t
        | first :: rest ->
            let bt, bg =
              List.fold_left
                (fun ((_, bg) as acc) ((_, g) as x) ->
                  if g > bg then x else acc)
                first rest
            in
            let low = match measure 64 with Some (_, g) -> g | None -> nan in
            Tabulate.add_row t
              [
                Hextime_tileopt.Space.id e.Optimizer.shape;
                string_of_int bt;
                Printf.sprintf "%.1f" bg;
                Printf.sprintf "%.1f" low;
              ])
      t top_shapes
  in
  Tabulate.print t;
  print_endline
    "(the paper: 'the values of this parameter that yielded the locally \
     best performance was easily predictable — empirically'; the same \
     256-512-thread plateau wins on every top shape, while small counts \
     forfeit more than half to exposed latency)"

(* --- Double precision (beyond the paper) ----------------------------------- *)

let () =
  section "Double precision (beyond the paper): FP32 vs FP64";
  let stencil = Stencil.heat2d in
  let space, time =
    match scale with
    | H.Experiments.Ci -> ([| 1024; 1024 |], 256)
    | _ -> ([| 4096; 4096 |], 1024)
  in
  let arch = Gpu.Arch.gtx980 in
  let params = H.Microbench.params arch in
  let t =
    Tabulate.create
      [
        ("precision", Tabulate.Left);
        ("C_iter", Tabulate.Right);
        ("feasible shapes", Tabulate.Right);
        ("tuned", Tabulate.Left);
        ("GFLOP/s", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (label, precision) ->
        let problem =
          Hextime_stencil.Problem.make ~precision stencil ~space ~time
        in
        let citer = H.Microbench.citer ~precision arch stencil in
        let shapes = Hextime_tileopt.Space.shapes params problem in
        let ctx = { Hextime_tileopt.Strategies.arch; params; citer; problem } in
        match Hextime_tileopt.Strategies.model_top10 ctx with
        | Error e -> Tabulate.add_row t [ label; "-"; "-"; e; "-" ]
        | Ok o ->
            Tabulate.add_row t
              [
                label;
                Printf.sprintf "%.2e s" citer;
                string_of_int (List.length shapes);
                Config.id o.Hextime_tileopt.Strategies.config;
                Printf.sprintf "%.1f"
                  o.Hextime_tileopt.Strategies.measurement
                    .Hextime_tileopt.Runner.gflops;
              ])
      t
      [
        ("FP32", Hextime_stencil.Problem.F32);
        ("FP64", Hextime_stencil.Problem.F64);
      ]
  in
  Tabulate.print t;
  print_endline
    "(doubling the word size halves the feasible tile space and Maxwell's \
     FP64 units run at a fraction of FP32 throughput; the model adapts \
     through its measured C_iter and the footprint word factor alone)"

(* --- Generic autotuner comparison (Section 6.2 discussion) ---------------- *)

let () =
  section "Generic autotuner vs model-guided search (Section 6.2 discussion)";
  let stencil, space, time =
    match scale with
    | H.Experiments.Ci -> (Stencil.heat2d, [| 1024; 1024 |], 256)
    | _ -> (Stencil.heat2d, [| 4096; 4096 |], 4096)
  in
  let arch = Gpu.Arch.gtx980 in
  let problem = Problem.make stencil ~space ~time in
  let params = H.Microbench.params arch in
  let citer = H.Microbench.citer arch stencil in
  let curve =
    Hextime_tileopt.Autotune.budget_curve
      ~budgets:[ 25; 50; 100; 200; 400 ]
      arch params problem
  in
  let t =
    Tabulate.create
      [ ("searcher", Tabulate.Left); ("measurements", Tabulate.Right);
        ("best GFLOP/s", Tabulate.Right) ]
  in
  let t =
    List.fold_left
      (fun t (budget, gflops) ->
        Tabulate.add_row t
          [ "generic autotuner"; string_of_int budget;
            Printf.sprintf "%.1f" gflops ])
      t curve
  in
  let ctx = { Hextime_tileopt.Strategies.arch; params; citer; problem } in
  let t =
    match Hextime_tileopt.Strategies.model_optimal ctx with
    | Ok o ->
        Tabulate.add_row t
          [
            "model-guided (Talg_min + thread sweep)";
            string_of_int o.Hextime_tileopt.Strategies.explored;
            Printf.sprintf "%.1f"
              o.Hextime_tileopt.Strategies.measurement
                .Hextime_tileopt.Runner.gflops;
          ]
    | Error _ -> t
  in
  let t =
    match Hextime_tileopt.Strategies.model_top10 ctx with
    | Ok o ->
        Tabulate.add_row t
          [
            "model-guided (within-10% exploration)";
            string_of_int o.Hextime_tileopt.Strategies.explored;
            Printf.sprintf "%.1f"
              o.Hextime_tileopt.Strategies.measurement
                .Hextime_tileopt.Runner.gflops;
          ]
    | Error _ -> t
  in
  Tabulate.print t;
  print_endline
    "(the within-10% exploration matches the tuner's converged best; the \
     generic tuner needs no model but spends hundreds of executions — each \
     of which on real hardware is a compile + run cycle of tens of seconds \
     (Section 8) — while the bare predicted minimum is a mediocre single \
     point, exactly Figure 6's message)"

(* --- Hexagonal vs classic time skewing ------------------------------------ *)

let () =
  section "Why hexagonal: hexagonal tiling vs classic time skewing";
  let cases =
    match scale with
    | H.Experiments.Ci -> [ (Stencil.heat2d, [| 1024; 1024 |], 256) ]
    | _ ->
        [
          (Stencil.heat2d, [| 4096; 4096 |], 1024);
          (Stencil.jacobi2d, [| 8192; 8192 |], 2048);
        ]
  in
  let arch = Gpu.Arch.gtx980 in
  let params = H.Microbench.params arch in
  let t =
    Tabulate.create
      [
        ("experiment", Tabulate.Left);
        ("hexagonal GF/s", Tabulate.Right);
        ("time-skewed GF/s", Tabulate.Right);
        ("launches hex/skewed", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (stencil, space, time) ->
        let problem = Problem.make stencil ~space ~time in
        let citer = H.Microbench.citer arch stencil in
        let ctx = { Hextime_tileopt.Strategies.arch; params; citer; problem } in
        match Hextime_tileopt.Strategies.model_top10 ctx with
        | Error e -> Tabulate.add_row t [ Problem.id problem; e; "-"; "-" ]
        | Ok best -> (
            let cfg = best.Hextime_tileopt.Strategies.config in
            match Hextime_tiling.Skewed.measure arch problem cfg with
            | Error e -> Tabulate.add_row t [ Problem.id problem; e; "-"; "-" ]
            | Ok skew_s ->
                let hex =
                  best.Hextime_tileopt.Strategies.measurement
                    .Hextime_tileopt.Runner.gflops
                in
                let order = 1 in
                let hex_l =
                  Hextime_tiling.Hexgeom.num_wavefronts ~t_t:cfg.Config.t_t
                    ~time
                in
                let skew_l =
                  List.length
                    (Hextime_tiling.Skewed.wavefront_widths ~order
                       ~t_s:cfg.Config.t_s.(0) ~t_t:cfg.Config.t_t
                       ~space:space.(0) ~time)
                in
                Tabulate.add_row t
                  [
                    Problem.id problem;
                    Printf.sprintf "%.1f" hex;
                    Printf.sprintf "%.1f" (Problem.total_flops problem /. skew_s /. 1e9);
                    Printf.sprintf "%d / %d" hex_l skew_l;
                  ]))
      t cases
  in
  Tabulate.print t;
  print_endline
    "(same tile volumes and inner chunking: the difference is schedule \
     structure — constant-width wavefronts and halo sharing vs ramping \
     45-degree wavefronts, cf. Section 2's discussion of time tiling)"

(* --- Hexagonal vs overlapped (ghost-zone) tiling --------------------------- *)

let () =
  section "Hexagonal vs overlapped tiling (redundant computation, Section 2)";
  let stencil, space, time =
    match scale with
    | H.Experiments.Ci -> (Stencil.heat2d, [| 1024; 1024 |], 256)
    | _ -> (Stencil.heat2d, [| 4096; 4096 |], 1024)
  in
  let arch = Gpu.Arch.gtx980 in
  let problem = Problem.make stencil ~space ~time in
  let t =
    Tabulate.create
      [
        ("tT", Tabulate.Right);
        ("redundancy", Tabulate.Right);
        ("overtile", Tabulate.Right);
        ("hexagonal", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t tt ->
        let cfg = Config.make_exn ~t_t:tt ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
        match
          ( Hextime_tiling.Overtile.measure arch problem cfg,
            Runner.measure arch problem cfg )
        with
        | Ok ot, Ok hex ->
            Tabulate.add_row t
              [
                string_of_int tt;
                Printf.sprintf "%.2fx"
                  (Hextime_tiling.Overtile.redundancy_factor ~order:1
                     ~t_s:[| 16; 64 |] ~t_t:tt);
                Tabulate.seconds_cell ot;
                Tabulate.seconds_cell hex.Runner.time_s;
              ]
        | Error e, _ | _, Error e ->
            Tabulate.add_row t [ string_of_int tt; "-"; e; "-" ])
      t [ 2; 4; 6; 8; 10; 12 ]
  in
  Tabulate.print t;
  print_endline
    "(shallow time tiles: the ghost-zone scheme's fewer launches win; deep \
     tiles: its redundant halo computation dominates and the hexagons pull \
     away — the Section 2 trade-off that motivates hexagonal tiling)"

(* --- Event-level cross-validation of the compute model -------------------- *)

let () =
  section "Cross-validation: warp-level event simulation vs closed form";
  let arch = Gpu.Arch.gtx980 in
  let body =
    { Gpu.Pointcost.flops = 10; loads = 5; transcendentals = 0; rank = 2; double = false }
  in
  let wl ~threads points repeats =
    Gpu.Workload.v ~label:"xval" ~threads ~shared_words:4000
      ~regs_per_thread:32 ~body
      ~rows:[ { Gpu.Workload.points; repeats } ]
      ~input:{ Gpu.Memory.words = 0; run_length = 32 }
      ~output:{ Gpu.Memory.words = 0; run_length = 32 }
      ~row_stride:73 ~chunks:1
  in
  let t =
    Tabulate.create
      [
        ("threads", Tabulate.Right);
        ("row points", Tabulate.Right);
        ("event / closed-form", Tabulate.Right);
        ("scheduler stall", Tabulate.Right);
      ]
  in
  let t =
    List.fold_left
      (fun t (threads, points) ->
        let w = wl ~threads points 8 in
        let st = Gpu.Eventsim.chunk_stats arch w in
        Tabulate.add_row t
          [
            string_of_int threads;
            string_of_int points;
            Printf.sprintf "%.2f" (Gpu.Eventsim.agreement arch w);
            Printf.sprintf "%.0f%%" (100.0 *. st.Gpu.Eventsim.stall_fraction);
          ])
      t
      [ (32, 512); (64, 1024); (128, 1024); (256, 1024); (256, 4096); (512, 2048); (1024, 8192) ]
  in
  Tabulate.print t;
  print_endline
    "(a cycle-by-cycle warp scheduler — latency hiding and barriers emerge \
     instead of being closed-form factors — reproduces the block compute \
     model within ~15%, evidencing the simulator substrate is self-consistent)"

(* ------------------------------------------------------------------ *)
(* Throughput trajectory: machine-readable hot-path numbers, exported
   to BENCH_hextime.json so CI can compare a run against the committed
   baseline (see bench/README.md and `hextime bench-compare`).

   Three metrics, each chosen because a PR touching the simulator core
   moves it directly:
   - cold-sweep points/sec: a full serial model-baseline sweep of
     heat2d 512x512 T=128 — the paper's end-to-end unit of work;
   - price ns/kernel: one jitter-invariant kernel pricing
     ([Simulator.price_sequence] over a compiled config);
   - eventsim simulated cycles per wall second on a canonical chunk.

   All three take best-of-3 so a cold code path or a scheduler blip
   does not pollute the baseline.  The workload is fixed (it does NOT
   scale with HEXTIME_SCALE) so numbers stay comparable across runs. *)

let () =
  section "Throughput trajectory (BENCH_hextime.json)";
  let module Minijson = Hextime_prelude.Minijson in
  let arch = Gpu.Arch.gtx980 in
  let problem = Problem.make Stencil.heat2d ~space:[| 512; 512 |] ~time:128 in
  let e = { H.Experiments.arch; problem } in
  (* warm the memoised microbenchmark parameters so the timed region
     measures the sweep itself, not one-time calibration *)
  ignore (H.Microbench.params arch);
  ignore (H.Microbench.citer arch Stencil.heat2d);
  let best_of_3 f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      let t1 = Unix.gettimeofday () in
      best := min !best (t1 -. t0)
    done;
    !best
  in
  (* cold sweep: every iteration re-prices and re-measures every point *)
  let n_points = ref 0 in
  let inv0 = Gpu.Simulator.invocations () in
  let sweep_s =
    best_of_3 (fun () ->
        let s = H.Sweep.baseline ~exec:Parsweep.serial e in
        n_points := List.length s.H.Sweep.points + H.Sweep.dropped s)
  in
  let sweep_pps = float_of_int !n_points /. sweep_s in
  let invocations_per_point =
    float_of_int (Gpu.Simulator.invocations () - inv0)
    /. (3.0 *. float_of_int !n_points)
  in
  (* the same workload on the parallel pool's worker domains.
     `hextime bench-compare` gates domains >= 0.5x serial at >= 2 jobs. *)
  let par_jobs = Parsweep.Dpool.default_jobs () in
  let domains_exec = { Parsweep.serial with jobs = par_jobs } in
  let domains_s =
    best_of_3 (fun () -> ignore (H.Sweep.baseline ~exec:domains_exec e))
  in
  let domains_pps = float_of_int !n_points /. domains_s in
  (* pricing: the jitter-invariant pass over one compiled config *)
  let cfg = Config.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  let compiled =
    match Lower.compile problem cfg with Ok c -> c | Error e -> failwith e
  in
  let kernels = Lower.kernel_sequence compiled in
  let price_reps = 20_000 in
  let price_s =
    best_of_3 (fun () ->
        for _ = 1 to price_reps do
          ignore (Gpu.Simulator.price_sequence arch kernels)
        done)
  in
  let price_ns =
    price_s /. float_of_int (price_reps * List.length kernels) *. 1e9
  in
  (* eventsim: simulated cycles per second of wall time on a canonical
     single-chunk workload (big enough to exercise the fast-forward) *)
  let body =
    {
      Gpu.Pointcost.flops = 10;
      loads = 5;
      transcendentals = 0;
      rank = 2;
      double = false;
    }
  in
  let w =
    Gpu.Workload.v ~label:"bench-eventsim" ~threads:256 ~shared_words:4000
      ~regs_per_thread:32 ~body
      ~rows:[ { Gpu.Workload.points = 4096; repeats = 16 } ]
      ~input:{ Gpu.Memory.words = 0; run_length = 32 }
      ~output:{ Gpu.Memory.words = 0; run_length = 32 }
      ~row_stride:73 ~chunks:1
  in
  let es_reps = 200 in
  let es_cycles = (Gpu.Eventsim.chunk_stats arch w).Gpu.Eventsim.cycles in
  let es_s =
    best_of_3 (fun () ->
        for _ = 1 to es_reps do
          ignore (Gpu.Eventsim.chunk_stats arch w)
        done)
  in
  let es_cps = es_cycles *. float_of_int es_reps /. es_s in
  (* hexserve warm path: requests/sec and exact client-side latency
     percentiles over one connection, to a server running in a domain.
     The index holds the ci experiment grid; every ask below hits it
     warm. *)
  let module Serve = Hextime_serve in
  let serve_socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hextime-bench-%d.sock" (Unix.getpid ()))
  in
  let serve_index_path = Filename.temp_file "hextime-bench-index" ".json" in
  let index = Serve.Index.create () in
  List.iter
    (fun (ex : H.Experiments.t) ->
      match
        Serve.Advisor.solve ex.H.Experiments.arch ex.H.Experiments.problem
      with
      | Ok a ->
          Serve.Index.add index
            (Serve.Index.entry_of_answer ex.H.Experiments.arch
               ex.H.Experiments.problem a)
      | Error _ -> ())
    (H.Experiments.all H.Experiments.Ci);
  (match Serve.Index.save index ~path:serve_index_path with
  | Ok () -> ()
  | Error e -> failwith e);
  let serve_access_log = Filename.temp_file "hextime-bench-access" ".jsonl" in
  let srv =
    Domain.spawn (fun () ->
        Serve.Server.run ~index_path:serve_index_path ~exec:Parsweep.serial
          ~access_log_path:serve_access_log ~socket_path:serve_socket ())
  in
  let fd =
    match Serve.Client.connect ~attempts:200 ~socket_path:serve_socket () with
    | Ok fd -> fd
    | Error e -> failwith e
  in
  (* tail latencies are gate inputs (bench-compare holds warm p99 under
     1 ms) but a single-shot p99 is hostage to container noise, so each
     serve figure is the median of 3 independent rounds over the same
     warm connection *)
  let median3 a b c = a +. b +. c -. min a (min b c) -. max a (max b c) in
  let asks = 2000 in
  let ask_round () =
    let lat = Array.make asks 0.0 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to asks - 1 do
      let a = Unix.gettimeofday () in
      (match
         Serve.Client.ask fd ~arch:"gtx980" ~stencil:"heat2d"
           ~space:[| 512; 512 |] ~time:128
       with
      | Ok { Serve.Proto.source = Serve.Proto.Warm; _ } -> ()
      | Ok _ -> failwith "bench: warm ask answered cold"
      | Error e -> failwith e);
      lat.(i) <- (Unix.gettimeofday () -. a) *. 1e6
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    Array.sort compare lat;
    let pct p =
      lat.(min (asks - 1) (int_of_float (ceil (p *. float_of_int asks)) - 1))
    in
    (float_of_int asks /. elapsed, pct 0.50, pct 0.99)
  in
  let (rps1, p50_1, p99_1) = ask_round () in
  let (rps2, p50_2, p99_2) = ask_round () in
  let (rps3, p50_3, p99_3) = ask_round () in
  let serve_rps = median3 rps1 rps2 rps3 in
  let serve_p50 = median3 p50_1 p50_2 p50_3 in
  let serve_p99 = median3 p99_1 p99_2 p99_3 in
  (* one full OpenMetrics exposition per round-trip: render + frame cost of
     the hexpulse scrape path (the metrics frame serves the same payload
     GET /metrics does) *)
  let scrapes = 64 in
  let scrape_round () =
    let scrape_lat = Array.make scrapes 0.0 in
    for i = 0 to scrapes - 1 do
      let a = Unix.gettimeofday () in
      (match Serve.Client.metrics fd with
      | Ok text when String.length text > 0 -> ()
      | Ok _ -> failwith "bench: empty exposition"
      | Error e -> failwith e);
      scrape_lat.(i) <- (Unix.gettimeofday () -. a) *. 1e6
    done;
    Array.sort compare scrape_lat;
    scrape_lat.(scrapes / 2)
  in
  let serve_scrape_us =
    median3 (scrape_round ()) (scrape_round ()) (scrape_round ())
  in
  (match Serve.Client.shutdown fd with Ok () -> () | Error e -> failwith e);
  Serve.Client.close fd;
  ignore (Domain.join srv : Serve.Server.summary);
  Sys.remove serve_index_path;
  Sys.remove serve_access_log;
  (* the same cold sweep measured (same machine class, same best-of-3
     methodology) at the commit before the priced-kernel refactor; kept
     here so the exported file documents the trajectory, not just the
     present *)
  let pre_refactor_pps = 39492.6 in
  Printf.printf "cold sweep          %10.1f points/sec (%d points)\n" sweep_pps
    !n_points;
  Printf.printf "  vs pre-refactor   %10.2fx (%.1f points/sec then)\n"
    (sweep_pps /. pre_refactor_pps)
    pre_refactor_pps;
  Printf.printf "  simulator prices  %10.2f per point\n" invocations_per_point;
  Printf.printf
    "cold sweep, domains %10.1f points/sec (%d jobs, %.2fx serial)\n"
    domains_pps par_jobs (domains_pps /. sweep_pps);
  Printf.printf "price               %10.1f ns/kernel\n" price_ns;
  Printf.printf "eventsim            %10.3e simulated cycles/sec\n" es_cps;
  Printf.printf
    "serve, warm asks    %10.1f requests/sec (%d asks x 3 rounds, 1 client)\n"
    serve_rps asks;
  Printf.printf
    "  warm p50 / p99    %10.1f / %.1f us round-trip (median of 3 rounds)\n"
    serve_p50 serve_p99;
  Printf.printf
    "  metrics scrape    %10.1f us median (%d scrapes x 3 rounds)\n"
    serve_scrape_us scrapes;
  let json =
    Minijson.Obj
      [
        ("schema", Minijson.Str "hextime-bench-v1");
        ("scale", Minijson.Str (H.Experiments.scale_to_string scale));
        ("cold_sweep_points_per_sec", Minijson.Num sweep_pps);
        ("domains_cold_sweep_points_per_sec", Minijson.Num domains_pps);
        ("sweep_jobs", Minijson.Num (float_of_int par_jobs));
        ("cold_sweep_points", Minijson.Num (float_of_int !n_points));
        ("simulator_prices_per_point", Minijson.Num invocations_per_point);
        ("price_ns_per_kernel", Minijson.Num price_ns);
        ("eventsim_cycles_per_sec", Minijson.Num es_cps);
        ("serve_requests_per_sec", Minijson.Num serve_rps);
        ("serve_warm_p50_us", Minijson.Num serve_p50);
        ("serve_warm_p99_us", Minijson.Num serve_p99);
        ("serve_metrics_scrape_us", Minijson.Num serve_scrape_us);
        ("pre_refactor_cold_sweep_points_per_sec", Minijson.Num pre_refactor_pps);
        ( "cold_sweep_speedup_vs_pre_refactor",
          Minijson.Num (sweep_pps /. pre_refactor_pps) );
      ]
  in
  let oc = open_out "BENCH_hextime.json" in
  output_string oc (Minijson.render json);
  close_out oc;
  print_endline "\nwrote BENCH_hextime.json";
  (* hexwatch: the same figures go to the run ledger, so `hextime history`
     shows the throughput trajectory alongside the accuracy runs *)
  let ledger = Hextime_obs.Ledger.default_path () in
  match
    Hextime_obs.Ledger.append ~path:ledger
      (Hextime_obs.Ledger.make ~kind:"bench"
         ~code_version:H.Sweep.code_version
         ~labels:[ ("scale", H.Experiments.scale_to_string scale) ]
         ~metrics:
           [
             ("cold_sweep_points_per_sec", sweep_pps);
             ("domains_cold_sweep_points_per_sec", domains_pps);
             ("cold_sweep_points", float_of_int !n_points);
             ("simulator_prices_per_point", invocations_per_point);
             ("price_ns_per_kernel", price_ns);
             ("eventsim_cycles_per_sec", es_cps);
             ("serve_requests_per_sec", serve_rps);
             ("serve_warm_p99_us", serve_p99);
             ("serve_metrics_scrape_us", serve_scrape_us);
           ]
         ~snapshot:
           (Hextime_obs.Metrics.to_json (Hextime_obs.Metrics.snapshot ()))
         ())
  with
  | Ok () -> Printf.printf "ledger: appended bench record to %s\n" ledger
  | Error msg -> Printf.eprintf "hexwatch: ledger: %s\n" msg

let () = print_endline "\nbench: done"
