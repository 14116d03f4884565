module Runner = Hextime_tileopt.Runner
module Baseline = Hextime_tileopt.Baseline
module Config = Hextime_tiling.Config
module Parsweep = Hextime_parsweep.Parsweep

type estimate = {
  experiments : int;
  data_points : int;
  rejected_points : int;
  compile_hours : float;
  run_hours : float;
  total_days : float;
}

let estimate ?(compile_seconds_per_point = 20.0) ?(runs_per_point = 5)
    ?(exec = Parsweep.serial) scale =
  if compile_seconds_per_point < 0.0 then
    invalid_arg "Campaign.estimate: negative compile cost";
  if runs_per_point < 1 then invalid_arg "Campaign.estimate: runs < 1";
  let experiments = Experiments.all scale in
  let tasks =
    List.concat_map
      (fun (e : Experiments.t) ->
        let params = Microbench.params e.arch in
        List.map
          (fun config -> (e, config))
          (Baseline.data_points params e.problem))
      experiments
  in
  let results, _stats =
    Hextime_obs.Trace.with_span "campaign.estimate"
      ~args:(fun () -> [ ("tasks", string_of_int (List.length tasks)) ])
      (fun () ->
        Parsweep.map
          ~label:
            (Printf.sprintf "campaign %s"
               (Experiments.scale_to_string scale))
          exec
          ~f:(fun ((e : Experiments.t), config) ->
            Hextime_obs.Trace.with_span "campaign.measure"
              ~args:(fun () ->
                [
                  ("experiment", Experiments.id e);
                  ("config", Config.id config);
                ])
              (fun () -> Runner.measure e.arch e.problem config))
          tasks)
  in
  (* only configurations that actually build and run cost campaign time;
     rejected ones are reported, not priced — counting them used to inflate
     both the point count and the compilation bill *)
  let feasible = ref 0 in
  let rejected = ref 0 in
  let run_seconds = ref 0.0 in
  List.iter
    (function
      | Ok (Ok (m : Runner.measurement)) ->
          incr feasible;
          run_seconds :=
            !run_seconds +. (float_of_int runs_per_point *. m.Runner.time_s)
      | Ok (Error _) | Error _ -> incr rejected)
    results;
  let compile_hours =
    float_of_int !feasible *. compile_seconds_per_point /. 3600.0
  in
  let run_hours = !run_seconds /. 3600.0 in
  {
    experiments = List.length experiments;
    data_points = !feasible;
    rejected_points = !rejected;
    compile_hours;
    run_hours;
    total_days = (compile_hours +. run_hours) /. 24.0;
  }

let render e =
  Printf.sprintf
    "campaign: %d experiments, %d data points (%d rejected configurations \
     excluded)\n\
    \  compilation (one HHC+nvcc invocation per point): %.0f hours\n\
    \  execution   (five measured runs per point):      %.0f hours\n\
    \  total: %.1f days of dedicated machine time\n\
    \  (parametric tile code generation, Section 8's proposal, would remove \
     the first line entirely)\n"
    e.experiments e.data_points e.rejected_points e.compile_hours e.run_hours
    e.total_days
