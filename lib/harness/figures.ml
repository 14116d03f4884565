module Gpu = Hextime_gpu
module Ints = Hextime_prelude.Ints
module Stats = Hextime_prelude.Stats
module Tabulate = Hextime_prelude.Tabulate
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Model = Hextime_core.Model
module Space = Hextime_tileopt.Space
module Optimizer = Hextime_tileopt.Optimizer
module Runner = Hextime_tileopt.Runner
module Strategies = Hextime_tileopt.Strategies

(* --- Figure 3 ---------------------------------------------------------- *)

type fig3_row = { experiment : string; summary : Validation.summary }

let fig3_data scale =
  let groups =
    (* merge problem sizes per (stencil, arch) pair, keeping panel order *)
    let tagged =
      List.map
        (fun (e : Experiments.t) ->
          ( ( e.problem.Problem.stencil.Stencil.name,
              e.arch.Gpu.Arch.name ),
            e ))
        (Experiments.all scale)
    in
    let keys =
      List.sort_uniq compare (List.map fst tagged)
    in
    List.map
      (fun key -> (key, List.filter_map (fun (k, e) -> if k = key then Some e else None) tagged))
      keys
  in
  List.filter_map
    (fun ((stencil, arch), exps) ->
      let points =
        List.concat_map
          (fun e -> (Sweep.baseline e).Sweep.points)
          exps
      in
      if points = [] then None
      else
        Some
          {
            experiment = Printf.sprintf "%s on %s" stencil arch;
            summary = Validation.analyze points;
          })
    groups

let render_fig3 rows =
  let open Tabulate in
  let t =
    create
      ~title:
        "Figure 3 / Section 5.3: model accuracy (predicted vs measured time)"
      [
        ("Benchmark / machine", Left);
        ("points", Right);
        ("RMSE all", Right);
        ("top-band points", Right);
        ("RMSE top 20%", Right);
        ("r (top)", Right);
        ("best GF/s", Right);
      ]
  in
  render
    (add_rows t
       (List.map
          (fun r ->
            [
              r.experiment;
              string_of_int r.summary.Validation.points;
              Printf.sprintf "%.0f%%" (100.0 *. r.summary.Validation.rmse_all);
              string_of_int r.summary.Validation.top_points;
              Printf.sprintf "%.1f%%" (100.0 *. r.summary.Validation.rmse_top);
              Printf.sprintf "%.3f" r.summary.Validation.correlation_top;
              Printf.sprintf "%.1f" r.summary.Validation.best_gflops;
            ])
          rows))

(* --- Figure 4 ---------------------------------------------------------- *)

type fig4 = {
  t_s1 : int;
  cells : (int * int * float) list;
  minimum : int * int * float;
}

let fig4_data ?(space = [| 8192; 8192 |]) ?(time = 8192) () =
  let arch = Gpu.Arch.gtx980 in
  let params = Microbench.params arch in
  let stencil = Stencil.heat2d in
  let problem = Problem.make stencil ~space ~time in
  let citer = Microbench.citer arch stencil in
  let t_s1 = 8 in
  let cells =
    List.concat_map
      (fun t_t ->
        List.filter_map
          (fun t_s2 ->
            match Config.make ~t_t ~t_s:[| t_s1; t_s2 |] ~threads:[| 128 |] with
            | Error _ -> None
            | Ok cfg -> (
                match Model.predict params ~citer problem cfg with
                | Error _ -> None
                | Ok pr -> Some (t_t, t_s2, pr.Model.talg)))
          (List.map (fun i -> 32 * i) (Ints.range 1 16)))
      (Ints.range ~step:2 2 40)
  in
  let minimum =
    match cells with
    | [] -> invalid_arg "Figures.fig4_data: empty surface"
    | c :: rest ->
        List.fold_left
          (fun ((_, _, bt) as acc) ((_, _, t) as x) ->
            if t < bt then x else acc)
          c rest
  in
  { t_s1; cells; minimum }

let render_fig4 f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Figure 4: Talg for Heat2D on GTX 980 as a function of tT and tS2 \
        (tS1 = %d)\n"
       f.t_s1);
  let t_ts = List.sort_uniq compare (List.map (fun (t, _, _) -> t) f.cells) in
  let t_s2s = List.sort_uniq compare (List.map (fun (_, s, _) -> s) f.cells) in
  let open Tabulate in
  let table =
    create
      (("tT \\ tS2", Right)
       :: List.map (fun s -> (string_of_int s, Right)) t_s2s)
  in
  let table =
    add_rows table
      (List.map
         (fun tt ->
           string_of_int tt
           :: List.map
                (fun s2 ->
                  match
                    List.find_opt (fun (t, s, _) -> t = tt && s = s2) f.cells
                  with
                  | Some (_, _, v) -> Printf.sprintf "%.2f" v
                  | None -> "-")
                t_s2s)
         t_ts)
  in
  Buffer.add_string buf (render table);
  let mt, ms, mv = f.minimum in
  Buffer.add_string buf
    (Printf.sprintf "Talg_min = %.3f s at tT = %d, tS2 = %d\n" mv mt ms);
  Buffer.contents buf

(* --- Figure 5 ---------------------------------------------------------- *)

type fig5 = {
  experiment : string;
  baseline_best_s : float;
  candidates : (string * float * float) list;
  best_candidate_s : float;
  improvement_pct : float;
}

let fig5_data ?(scale = Experiments.Quick) () =
  let arch = Gpu.Arch.gtx980 in
  let stencil = Stencil.gradient2d in
  let space, time =
    match scale with
    | Experiments.Ci -> ([| 512; 512 |], 128)
    | Experiments.Quick | Experiments.Paper -> ([| 8192; 8192 |], 8192)
  in
  let problem = Problem.make stencil ~space ~time in
  let params = Microbench.params arch in
  let citer = Microbench.citer arch stencil in
  let ctx = { Strategies.arch; params; citer; problem } in
  let baseline =
    match Strategies.baseline_best ctx with
    | Ok o -> o.Strategies.measurement.Runner.time_s
    | Error msg -> invalid_arg ("Figures.fig5_data: baseline failed: " ^ msg)
  in
  let space_eval = Optimizer.evaluate_space params ~citer problem in
  let cands = Optimizer.within_fraction ~frac:0.10 space_eval in
  (* cap at the paper's exploration budget (Section 6 reports < 200 points) *)
  let cands =
    List.filteri (fun i _ -> i < 200) cands
  in
  let candidates =
    List.filter_map
      (fun (e : Optimizer.evaluated) ->
        (* each candidate shape measured with its empirically best thread
           count, as in Section 6.1's final experiments *)
        let best =
          List.filter_map
            (fun threads ->
              match
                Config.make ~t_t:e.shape.Space.t_t ~t_s:e.shape.Space.t_s
                  ~threads:[| threads |]
              with
              | Error _ -> None
              | Ok cfg -> (
                  match Runner.measure arch problem cfg with
                  | Ok m -> Some m.Runner.time_s
                  | Error _ -> None))
            Space.thread_candidates
        in
        match best with
        | [] -> None
        | times ->
            Some
              ( Space.id e.shape,
                e.prediction.Model.talg,
                Stats.minimum times ))
      cands
  in
  let best_candidate_s =
    match candidates with
    | [] -> invalid_arg "Figures.fig5_data: no feasible candidate"
    | _ -> Stats.minimum (List.map (fun (_, _, m) -> m) candidates)
  in
  {
    experiment =
      Printf.sprintf "gradient2d %dx%d T=%d on %s" space.(0) space.(1) time
        arch.Gpu.Arch.name;
    baseline_best_s = baseline;
    candidates;
    best_candidate_s;
    improvement_pct = 100.0 *. (baseline -. best_candidate_s) /. baseline;
  }

let render_fig5 f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Figure 5: predicted tile-size performance, %s\n"
       f.experiment);
  let open Tabulate in
  let t =
    create
      [
        ("candidate shape (within 10% of Talg_min)", Left);
        ("predicted", Right);
        ("measured", Right);
      ]
  in
  let t =
    add_rows t
      (List.map
         (fun (id, p, m) -> [ id; seconds_cell p; seconds_cell m ])
         f.candidates)
  in
  Buffer.add_string buf (render t);
  Buffer.add_string buf
    (Printf.sprintf
       "baseline best = %.3f s; model-guided best = %.3f s; improvement = \
        %.1f%% over %d candidates\n"
       f.baseline_best_s f.best_candidate_s f.improvement_pct
       (List.length f.candidates));
  Buffer.contents buf

(* --- Figure 6 ---------------------------------------------------------- *)

type fig6_row = {
  stencil : string;
  arch : string;
  per_strategy : (string * float) list;
}

let fig6_data scale =
  List.concat_map
    (fun arch ->
      List.map
        (fun stencil ->
          let params = Microbench.params arch in
          let citer = Microbench.citer arch stencil in
          let per_size =
            List.map
              (fun (space, time) ->
                let problem = Problem.make stencil ~space ~time in
                let ctx = { Strategies.arch; params; citer; problem } in
                Strategies.all ~max_configs:2000 ctx
                |> List.filter_map (fun (name, outcome) ->
                       match outcome with
                       | Ok o ->
                           Some
                             (name, o.Strategies.measurement.Runner.gflops)
                       | Error _ -> None))
              (Experiments.sizes_2d scale)
          in
          let names =
            match per_size with [] -> [] | first :: _ -> List.map fst first
          in
          let per_strategy =
            List.map
              (fun name ->
                let values =
                  List.filter_map (fun outcomes -> List.assoc_opt name outcomes)
                    per_size
                in
                (name, if values = [] then nan else Stats.mean values))
              names
          in
          {
            stencil = stencil.Stencil.name;
            arch = arch.Gpu.Arch.name;
            per_strategy;
          })
        Stencil.benchmarks_2d)
    Gpu.Arch.presets

let render_fig6 rows =
  let open Tabulate in
  match rows with
  | [] -> "Figure 6: (no data)\n"
  | first :: _ ->
      let strategies = List.map fst first.per_strategy in
      let t =
        create
          ~title:
            "Figure 6: average GFLOP/s per tile-size selection strategy (2D \
             stencils)"
          (("Benchmark / machine", Left)
           :: List.map (fun s -> (s, Right)) strategies)
      in
      render
        (add_rows t
           (List.map
              (fun r ->
                Printf.sprintf "%s on %s" r.stencil r.arch
                :: List.map
                     (fun s ->
                       match List.assoc_opt s r.per_strategy with
                       | Some v when not (Float.is_nan v) ->
                           Printf.sprintf "%.1f" v
                       | _ -> "-")
                     strategies)
              rows))
