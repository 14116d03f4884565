(* Feasible-space enumeration, the baseline protocol, the runner, the
   optimizer and the selection strategies (Section 6). *)

module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module C = Hextime_tiling.Config
module Footprint = Hextime_tiling.Footprint
module Model = Hextime_core.Model
module Params = Hextime_core.Params
module Space = Hextime_tileopt.Space
module Baseline = Hextime_tileopt.Baseline
module Runner = Hextime_tileopt.Runner
module Optimizer = Hextime_tileopt.Optimizer
module Strategies = Hextime_tileopt.Strategies
module Amplgen = Hextime_tileopt.Amplgen

let arch = Gpu.Arch.gtx980

let params =
  Params.of_microbenchmarks arch ~l_word:3.0e-11 ~tau_sync:1.0e-9 ~t_sync:1.0e-6

let citer = 4.0e-8
let problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:64
let problem3d = P.make S.heat3d ~space:[| 96; 96; 96 |] ~time:32

let test_space_constraints () =
  let shapes = Space.shapes params problem in
  Alcotest.(check bool) "non-empty" true (List.length shapes > 100);
  List.iter
    (fun (s : Space.shape) ->
      Alcotest.(check bool) "tT even" true (s.t_t mod 2 = 0);
      Alcotest.(check bool) "inner warp multiple" true (s.t_s.(1) mod 32 = 0);
      Alcotest.(check bool) "fits problem" true
        (s.t_s.(0) <= 512 && s.t_s.(1) <= 512);
      let fp =
        Footprint.of_config ~order:1 ~space:[| 512; 512 |]
          (Space.to_config s ~threads:[| 32 |])
      in
      Alcotest.(check bool) "within 48KB cap" true
        (fp.Footprint.shared_words <= params.Params.shared_mem_per_block))
    shapes

let test_space_3d () =
  let shapes = Space.shapes params problem3d in
  Alcotest.(check bool) "3D space non-empty" true (List.length shapes > 50);
  List.iter
    (fun (s : Space.shape) ->
      Alcotest.(check int) "rank 3" 3 (Array.length s.t_s);
      Alcotest.(check bool) "inner multiple" true (s.t_s.(2) mod 32 = 0))
    shapes

let test_thread_candidates () =
  Alcotest.(check int) "ten thread counts (Section 5.1)" 10
    (List.length Space.thread_candidates)

let test_baseline_size_and_bias () =
  let shapes = Baseline.tile_shapes params problem in
  Alcotest.(check int) "85 shapes (Section 5.1)" 85 (List.length shapes);
  let points = Baseline.data_points params problem in
  Alcotest.(check int) "850 data points" 850 (List.length points);
  (* the selection is footprint-biased: most shapes above 60% of the cap *)
  let frac_large =
    let fp s =
      (Footprint.of_config ~order:1 ~space:[| 512; 512 |]
         (Space.to_config s ~threads:[| 32 |]))
        .Footprint.shared_words
    in
    let large =
      List.filter
        (fun s ->
          float_of_int (fp s)
          >= 0.6 *. float_of_int params.Params.shared_mem_per_block)
        shapes
    in
    float_of_int (List.length large) /. 85.0
  in
  Alcotest.(check bool) "footprint-maximising bias" true (frac_large > 0.5)

let test_runner () =
  let cfg = C.make_exn ~t_t:8 ~t_s:[| 8; 64 |] ~threads:[| 256 |] in
  match Runner.measure arch problem cfg with
  | Error e -> Alcotest.failf "runner failed: %s" e
  | Ok m ->
      Alcotest.(check bool) "positive time" true (m.Runner.time_s > 0.0);
      Alcotest.(check bool) "gflops consistent" true
        (abs_float
           (m.Runner.gflops -. Runner.gflops_of_time problem m.Runner.time_s)
        < 1e-9);
      Alcotest.(check bool) "k at least 1" true (m.Runner.resident_blocks >= 1)

let test_runner_rejects () =
  let cfg = C.make_exn ~t_t:8 ~t_s:[| 600; 64 |] ~threads:[| 256 |] in
  match Runner.measure arch problem cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized tile measured"

let test_measure_prices_once () =
  (* the runner compiles to two kernels (green + yellow) and the 5-run
     measurement protocol prices each exactly once *)
  let cfg = C.make_exn ~t_t:8 ~t_s:[| 8; 64 |] ~threads:[| 256 |] in
  let before = Gpu.Simulator.invocations () in
  (match Runner.measure arch problem cfg with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "measure: %s" e);
  Alcotest.(check int) "two kernels priced once each" 2
    (Gpu.Simulator.invocations () - before)

let test_golden_bit_identity () =
  (* measurements frozen before the priced-kernel refactor: pricing once
     and replaying jitter is an exact factoring, so these are bit-exact *)
  let problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:128 in
  List.iter
    (fun (tt, ts, thr, expect) ->
      let cfg = C.make_exn ~t_t:tt ~t_s:ts ~threads:[| thr |] in
      match Runner.measure arch problem cfg with
      | Ok m ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "frozen %d-%dx%d-%d" tt ts.(0) ts.(1) thr)
            expect m.Runner.time_s
      | Error e -> Alcotest.failf "golden t_t=%d: %s" tt e)
    [
      (16, [| 16; 64 |], 256, 2.21214327483539811e-03);
      (8, [| 24; 96 |], 128, 3.54076699895410248e-03);
      (2, [| 1; 32 |], 32, 4.08022578475355432e-02);
    ];
  (* and an infeasible one stays infeasible *)
  let cfg = C.make_exn ~t_t:32 ~t_s:[| 48; 128 |] ~threads:[| 512 |] in
  match Runner.measure arch problem cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infeasible golden accepted"

let test_shapes_frozen_counts () =
  (* the unreachable-branch cleanup in Space.shapes must not change the
     enumerated set; counts frozen before the cleanup *)
  let mb = Hextime_harness.Microbench.params arch in
  List.iter
    (fun (st, space, time, expect) ->
      let p = P.make st ~space ~time in
      Alcotest.(check int) (P.id p) expect (List.length (Space.shapes mb p)))
    [
      (S.heat2d, [| 512; 512 |], 128, 1664);
      (S.heat3d, [| 96; 96; 96 |], 32, 244);
      (S.jacobi1d, [| 65536 |], 512, 544);
    ]

let evaluated = Optimizer.evaluate_space params ~citer problem

let test_optimizer_best_and_within () =
  Alcotest.(check bool) "space evaluated" true (List.length evaluated > 100);
  let b = Optimizer.best evaluated in
  List.iter
    (fun (e : Optimizer.evaluated) ->
      Alcotest.(check bool) "best is minimal" true
        (b.Optimizer.prediction.Model.talg
         <= e.Optimizer.prediction.Model.talg +. 1e-15))
    evaluated;
  let within = Optimizer.within_fraction ~frac:0.10 evaluated in
  Alcotest.(check bool) "within set non-empty" true (List.length within >= 1);
  Alcotest.(check bool) "within contains best" true
    (List.exists (fun e -> e.Optimizer.shape = b.Optimizer.shape) within);
  List.iter
    (fun (e : Optimizer.evaluated) ->
      Alcotest.(check bool) "within 10%" true
        (e.Optimizer.prediction.Model.talg
         <= 1.1 *. b.Optimizer.prediction.Model.talg))
    within;
  (* sorted ascending *)
  let rec sorted = function
    | (a : Optimizer.evaluated) :: (b :: _ as rest) ->
        a.Optimizer.prediction.Model.talg <= b.Optimizer.prediction.Model.talg
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted within);
  (* Section 6: the candidate set is small (paper: < 200 points) *)
  Alcotest.(check bool) "candidate set small" true
    (Optimizer.candidate_count ~frac:0.10 evaluated < 200)

let test_optimizer_empty () =
  Alcotest.check_raises "empty best" (Invalid_argument "Optimizer.best: empty space")
    (fun () -> ignore (Optimizer.best []))

let ctx = { Strategies.arch; params; citer; problem }

let test_strategies_ordering () =
  let get r = match r with Ok o -> o | Error e -> Alcotest.failf "strategy failed: %s" e in
  let hhc = get (Strategies.hhc_default ctx) in
  let top10 = get (Strategies.model_top10 ctx) in
  let baseline = get (Strategies.baseline_best ctx) in
  (* the paper's Figure 6 ordering: model-guided search beats the untuned
     compiler default by a wide margin *)
  Alcotest.(check bool) "top10 beats HHC by > 20%" true
    (top10.Strategies.measurement.Runner.gflops
     > 1.2 *. hhc.Strategies.measurement.Runner.gflops);
  (* and is at least competitive with the baseline sweep *)
  Alcotest.(check bool) "top10 >= 97% of baseline" true
    (top10.Strategies.measurement.Runner.gflops
     >= 0.97 *. baseline.Strategies.measurement.Runner.gflops);
  (* it explores far fewer configurations than exhaustive search would *)
  Alcotest.(check bool) "top10 explored > 0" true (top10.Strategies.explored > 0);
  Alcotest.(check bool) "model prediction recorded" true
    (top10.Strategies.predicted_s <> None)

let test_exhaustive_capped () =
  match Strategies.exhaustive ~max_configs:50 ctx with
  | Error e -> Alcotest.failf "exhaustive failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "cap respected" true (o.Strategies.explored <= 50)

let test_ampl_emission () =
  let text = Amplgen.emit params ~citer problem in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (Test_util.contains text needle))
    [ "minimize Talg"; "param nSM := 16"; "cap_block"; "ceil(S1 /" ]

let prop_model_more_permissive_than_machine =
  (* the model deliberately ignores registers and threads, so anything the
     compiler+simulator accept, the model must also accept (the converse
     fails: thread-slot/register-limited configs are invisible to it) *)
  QCheck.Test.make ~name:"measure Ok => predict Ok" ~count:80
    QCheck.(
      quad (int_range 1 10) (int_range 1 24) (int_range 1 8) (int_range 0 9))
    (fun (tth, t_s1, ts2m, thr_idx) ->
      let threads = List.nth Space.thread_candidates thr_idx in
      match
        C.make ~t_t:(2 * tth) ~t_s:[| t_s1; 32 * ts2m |] ~threads:[| threads |]
      with
      | Error _ -> true
      | Ok cfg -> (
          match Runner.measure arch problem cfg with
          | Error _ -> true
          | Ok _ -> (
              match Model.predict params ~citer problem cfg with
              | Ok _ -> true
              | Error _ -> false)))

(* The list-product enumeration Space.shapes replaced, kept as the
   reference: the whole lattice of Space.axes, in order, filtered by the
   footprint. *)
let reference_shapes (p : Params.t) (problem : P.t) =
  let fits (shape : Space.shape) =
    Footprint.shared_words_of ~word_factor:(P.word_factor problem)
      ~order:problem.P.stencil.S.order ~t_t:shape.t_t shape.t_s
    <= p.Params.shared_mem_per_block
  in
  let tt_axis, ts_axes = Space.axes problem in
  let rec product = function
    | [] -> [ [] ]
    | axis :: rest ->
        let tails = product rest in
        List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) axis
  in
  let tuples = product (Array.to_list (Array.map Array.to_list ts_axes)) in
  List.concat_map
    (fun t_t ->
      List.filter_map
        (fun tup ->
          let shape = { Space.t_t; t_s = Array.of_list tup } in
          if fits shape then Some shape else None)
        tuples)
    (Array.to_list tt_axis)

let prop_shapes_match_reference =
  let gen =
    QCheck.Gen.(
      let* stencil = oneofl S.all_benchmarks in
      let* space =
        array_repeat stencil.S.rank (int_range ((2 * stencil.S.order) + 1) 700)
      in
      let* time = int_range 1 80 in
      let* precision = oneofl [ P.F32; P.F64 ] in
      let* arch = oneofl Gpu.Arch.presets in
      let* shared_mem_per_block = int_range 256 (2 * arch.shared_mem_per_block) in
      return
        ( { arch with Gpu.Arch.shared_mem_per_block },
          P.make ~precision stencil ~space ~time ))
  in
  QCheck.Test.make ~name:"Space.shapes = list-product reference" ~count:150
    (QCheck.make
       ~print:(fun ((a : Gpu.Arch.t), p) ->
         Printf.sprintf "%s cap %d %s" a.name a.shared_mem_per_block (P.id p))
       gen)
    (fun (arch, problem) ->
      let p =
        Params.of_microbenchmarks arch ~l_word:3.0e-11 ~tau_sync:1.0e-9
          ~t_sync:1.0e-6
      in
      Space.shapes p problem = reference_shapes p problem)

(* Baseline.tile_shapes before its backfill marked the chosen shapes by
   position: the same selection, with a structural [List.mem] against the
   chosen list for every ranked shape.  Kept as the reference; it also
   says whether the bands fell short and the backfill ran. *)
let reference_tile_shapes (p : Params.t) (problem : P.t) =
  let footprint_words (shape : Space.shape) =
    Footprint.shared_words_of ~word_factor:(P.word_factor problem)
      ~order:problem.P.stencil.S.order ~t_t:shape.t_t shape.t_s
  in
  let spread n xs =
    let len = List.length xs in
    if len <= n then xs
    else
      let arr = Array.of_list xs in
      List.init n (fun i -> arr.(i * len / n))
  in
  let cap = p.Params.shared_mem_per_block in
  let with_fp =
    Space.shapes p problem
    |> List.map (fun s -> (s, footprint_words s))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let band lo hi =
    List.filter_map
      (fun (s, fp) ->
        let frac = float_of_int fp /. float_of_int cap in
        if frac > lo && frac <= hi then Some s else None)
      with_fp
  in
  let chosen =
    spread 70 (band 0.8 1.0) @ spread 10 (band 0.5 0.8) @ spread 5 (band 0.0 0.5)
  in
  let missing = 85 - List.length chosen in
  if missing <= 0 then (chosen, false)
  else
    let rest =
      List.filter (fun (s, _) -> not (List.mem s chosen)) with_fp
      |> List.map fst
    in
    (chosen @ spread missing rest, true)

(* Every paper stencil on both presets at the CI sizes and at each paper
   extent (T leaves the shapes alone there: every t_t candidate is below
   2T), plus the 1D and second-order stencils.  The 3D problems backfill. *)
let test_tile_shapes_match_reference () =
  let module E = Hextime_harness.Experiments in
  let seen = Hashtbl.create 64 in
  let paper =
    List.filter
      (fun (e : E.t) ->
        let key = (e.arch.Gpu.Arch.name, e.problem.P.stencil.S.name, e.problem.P.space) in
        (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
      (E.all E.Paper)
  in
  let extra =
    List.concat_map
      (fun arch ->
        List.map
          (fun problem -> { E.arch; problem })
          [
            P.make S.jacobi1d ~space:[| 65536 |] ~time:512;
            P.make S.jacobi1d ~space:[| 1000 |] ~time:20;
            P.make S.jacobi2d_order2 ~space:[| 512; 512 |] ~time:128;
            P.make S.heat3d_order2 ~space:[| 96; 96; 96 |] ~time:32;
          ])
      Gpu.Arch.presets
  in
  let backfilled = ref 0 in
  List.iter
    (fun (e : E.t) ->
      let p = Hextime_harness.Microbench.params e.arch in
      let want, backfill = reference_tile_shapes p e.problem in
      if backfill then incr backfilled;
      Alcotest.(check (list string))
        (E.id e ^ ": same shapes in the same order")
        (List.map Space.id want)
        (List.map Space.id (Baseline.tile_shapes p e.problem)))
    (E.all E.Ci @ paper @ extra);
  Alcotest.(check bool) "backfill exercised" true (!backfilled >= 10)

let suite =
  [
    Alcotest.test_case "space constraints" `Quick test_space_constraints;
    Alcotest.test_case "space 3D" `Quick test_space_3d;
    Alcotest.test_case "thread candidates" `Quick test_thread_candidates;
    Alcotest.test_case "baseline set (Section 5.1)" `Quick test_baseline_size_and_bias;
    Alcotest.test_case "baseline backfill = List.mem reference" `Quick
      test_tile_shapes_match_reference;
    Alcotest.test_case "runner" `Quick test_runner;
    Alcotest.test_case "runner rejects" `Quick test_runner_rejects;
    Alcotest.test_case "runner prices once" `Quick test_measure_prices_once;
    Alcotest.test_case "golden bit-identity" `Quick test_golden_bit_identity;
    Alcotest.test_case "shapes frozen counts" `Quick test_shapes_frozen_counts;
    Alcotest.test_case "optimizer best/within" `Quick test_optimizer_best_and_within;
    Alcotest.test_case "optimizer empty" `Quick test_optimizer_empty;
    Alcotest.test_case "strategy ordering" `Slow test_strategies_ordering;
    Alcotest.test_case "exhaustive capped" `Quick test_exhaustive_capped;
    Alcotest.test_case "AMPL emission" `Quick test_ampl_emission;
    QCheck_alcotest.to_alcotest prop_model_more_permissive_than_machine;
    QCheck_alcotest.to_alcotest prop_shapes_match_reference;
  ]
