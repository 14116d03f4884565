module Model = Hextime_core.Model
module Runner = Hextime_tileopt.Runner
module Baseline = Hextime_tileopt.Baseline
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Simulator = Hextime_gpu.Simulator
module Parsweep = Hextime_parsweep.Parsweep

type point = {
  config : Hextime_tiling.Config.t;
  predicted : Model.prediction;
  measured : Runner.measurement;
}

type sweep = {
  points : point list;
  infeasible_model : int;
  infeasible_runner : int;
}

(* Provenance only: the ledger and the accuracy baseline record it.
   v3: priced-kernel simulator core (pricing hoisted out of the per-salt
   measurement loop) and the event simulator's steady-state fast-forward.
   v4: sweep points keyed by a digest of their pricing inputs. *)
let code_version = "hextime-sweep-v4"

let subsample limit xs =
  match limit with
  | None -> xs
  | Some n when n <= 0 -> invalid_arg "Sweep.subsample: limit must be positive"
  | Some n -> (
      let len = List.length xs in
      if len <= n then xs
      else
        let arr = Array.of_list xs in
        match n with
        | 1 -> [ arr.(len - 1) ]
        | n ->
            (* even spacing that always keeps both endpoints: the index
               i*(len-1)/(n-1) is strictly increasing (the step exceeds 1
               whenever len > n), starts at 0 and ends at len-1 — so the
               selection is order-preserving and can never drop the final
               element, where the true sweep maximum may live *)
            List.init n (fun i -> arr.(i * (len - 1) / (n - 1))))

type outcome =
  [ `Point of point | `Infeasible_model of string | `Infeasible_runner of string ]

(* What one tile shape's configurations share.  The model has no thread
   term (Section 7), so a shape's prediction is every thread count's
   prediction; the lowering's thread-independent half is shared too, and
   so is the noise seed's hash of the architecture and the label prefix. *)
type prepared =
  [ `Shape of Model.prediction * Lower.shape * Simulator.seed_prefix
  | `Infeasible_model of string
  | `Infeasible_runner of string ]

let prepare params ~citer (e : Experiments.t) config : prepared =
  try
    match Model.predict params ~citer e.problem config with
    | Error msg -> `Infeasible_model msg
    | Ok predicted -> (
        match Lower.shape_half e.problem config with
        | Error msg -> `Infeasible_runner msg
        | Ok shape ->
            `Shape
              ( predicted,
                shape,
                Simulator.seed_prefix e.arch (Lower.label_prefix shape) ))
  with
  (* dropped like a point whose evaluation raises: every configuration of
     the shape counts as a runner rejection *)
  | exn -> `Infeasible_runner (Printexc.to_string exn)

(* Pair each configuration with its shape's [prepared], preparing each run
   of consecutive configurations of one shape once. *)
let by_shape prepare configs =
  let rec go prev acc = function
    | [] -> List.rev acc
    | config :: rest ->
        let prepared =
          match prev with
          | Some (c, p) when Config.same_shape c config -> p
          | _ -> prepare config
        in
        go (Some (config, prepared)) ((prepared, config) :: acc) rest
  in
  go None [] configs

let evaluate (e : Experiments.t) ((prepared : prepared), config) : outcome =
  Hextime_obs.Trace.with_span "sweep.evaluate"
    ~args:(fun () ->
      [ ("experiment", Experiments.id e); ("config", Config.id config) ])
  @@ fun () ->
  match prepared with
  | (`Infeasible_model _ | `Infeasible_runner _) as drop -> drop
  | `Shape (predicted, shape, prefix) -> (
      match
        Runner.measure_lowered ~prefix e.arch e.problem
          (Lower.thread_half shape config)
      with
      | Error msg -> `Infeasible_runner msg
      | Ok measured -> `Point { config; predicted; measured })

let run ?limit ?(exec = Parsweep.serial) (e : Experiments.t) =
  let params = Microbench.params e.arch in
  let citer =
    Microbench.citer e.arch e.problem.Hextime_stencil.Problem.stencil
  in
  let configs = Baseline.data_points params e.problem |> subsample limit in
  let outcomes, stats =
    Hextime_obs.Trace.with_span "sweep.run"
      ~args:(fun () ->
        [
          ("experiment", Experiments.id e);
          ("configs", string_of_int (List.length configs));
        ])
      (fun () ->
        Parsweep.map
          ~label:("sweep " ^ Experiments.id e)
          exec ~f:(evaluate e)
          (by_shape (prepare params ~citer e) configs))
  in
  let points, infeasible_model, infeasible_runner =
    List.fold_right
      (fun outcome (pts, im, ir) ->
        match outcome with
        | Ok (`Point p) -> (p :: pts, im, ir)
        | Ok (`Infeasible_model _) -> (pts, im + 1, ir)
        (* an exception escaping a point drops it like a rejected run: it
           is counted, not hidden *)
        | Ok (`Infeasible_runner _) | Error _ -> (pts, im, ir + 1))
      outcomes ([], 0, 0)
  in
  ({ points; infeasible_model; infeasible_runner }, stats)

let baseline ?limit ?exec e = fst (run ?limit ?exec e)

let dropped s = s.infeasible_model + s.infeasible_runner

let pp_drops ppf s =
  Format.fprintf ppf "%d dropped (%d model-infeasible, %d runner-rejected)"
    (dropped s) s.infeasible_model s.infeasible_runner

let best_gflops = function
  | [] -> invalid_arg "Sweep.best_gflops: empty sweep"
  | points ->
      List.fold_left
        (fun acc p -> max acc p.measured.Runner.gflops)
        0.0 points

let top_performing ~within points =
  if within < 0.0 || within >= 1.0 then
    invalid_arg "Sweep.top_performing: within must be in [0, 1)";
  match points with
  | [] -> []
  | _ ->
      let best = best_gflops points in
      List.filter
        (fun p -> p.measured.Runner.gflops >= (1.0 -. within) *. best)
        points
