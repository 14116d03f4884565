(* The parallel sweep engine, and the sweep-layer bugfix batch: subsample
   endpoint coverage, campaign feasible/rejected accounting, the
   binding-kernel occupancy report, and serial/parallel result identity. *)

module Parsweep = Hextime_parsweep.Parsweep
module Dpool = Hextime_parsweep.Dpool
module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Runner = Hextime_tileopt.Runner
module Baseline = Hextime_tileopt.Baseline
module H = Hextime_harness

(* --- Sweep.subsample ------------------------------------------------------ *)

let test_subsample_endpoints () =
  let xs = List.init 100 Fun.id in
  let sub = H.Sweep.subsample (Some 7) xs in
  Alcotest.(check int) "length" 7 (List.length sub);
  Alcotest.(check int) "first kept" 0 (List.hd sub);
  Alcotest.(check int) "last kept" 99 (List.nth sub 6);
  (* order-preserving and duplicate-free when len > n *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing sub)

let test_subsample_small_n () =
  let xs = List.init 10 Fun.id in
  Alcotest.(check (list int)) "n = 1 keeps the last element" [ 9 ]
    (H.Sweep.subsample (Some 1) xs);
  Alcotest.(check (list int)) "n = 2 keeps both endpoints" [ 0; 9 ]
    (H.Sweep.subsample (Some 2) xs)

let test_subsample_identity () =
  let xs = List.init 5 Fun.id in
  Alcotest.(check (list int)) "n >= len is the identity" xs
    (H.Sweep.subsample (Some 5) xs);
  Alcotest.(check (list int)) "n > len is the identity" xs
    (H.Sweep.subsample (Some 50) xs);
  Alcotest.(check (list int)) "no limit is the identity" xs
    (H.Sweep.subsample None xs)

let test_subsample_validation () =
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Sweep.subsample: limit must be positive") (fun () ->
      ignore (H.Sweep.subsample (Some 0) [ 1; 2; 3 ]))

(* --- Dpool: the in-process path and the progress hook ---------------------- *)

let ok = Alcotest.(result int string)

(* the progress hook ends on the full count, whichever path runs the
   tasks *)
let test_pool_parallel_matches_serial () =
  let tasks = Array.init 50 (fun i -> i) in
  let f i = (i * i) + 7 in
  let run jobs =
    let last_done = ref 0 in
    let results =
      Dpool.map ~jobs
        ~on_progress:(fun ~done_ ~alive:_ ~busy:_ -> last_done := done_)
        ~f tasks
    in
    Alcotest.(check int) "progress reaches the task count" 50 !last_done;
    results
  in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check (array ok)) "point-for-point identical" serial parallel

let test_pool_exception_becomes_error () =
  let f i = if i = 3 then failwith "boom" else i in
  let results = Dpool.map ~jobs:1 ~f (Array.init 6 Fun.id) in
  (match results.(3) with
  | Error msg ->
      Alcotest.(check bool) "message preserved" true
        (Test_util.contains msg "boom")
  | Ok _ -> Alcotest.fail "exception not surfaced");
  Array.iteri
    (fun i r -> if i <> 3 then Alcotest.(check ok) "others fine" (Ok i) r)
    results

let obs_work_counter = Hextime_obs.Metrics.counter "test.parsweep.work"

(* --- the sweep through the engine ----------------------------------------- *)

let experiment =
  {
    H.Experiments.arch = Gpu.Arch.gtx980;
    problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:128;
  }

let check_sweeps_equal label (a : H.Sweep.sweep) (b : H.Sweep.sweep) =
  Alcotest.(check int)
    (label ^ ": same population")
    (List.length a.H.Sweep.points)
    (List.length b.H.Sweep.points);
  Alcotest.(check int)
    (label ^ ": same model drops")
    a.H.Sweep.infeasible_model b.H.Sweep.infeasible_model;
  Alcotest.(check int)
    (label ^ ": same runner drops")
    a.H.Sweep.infeasible_runner b.H.Sweep.infeasible_runner;
  List.iter2
    (fun (p : H.Sweep.point) (q : H.Sweep.point) ->
      Alcotest.(check string)
        (label ^ ": same config")
        (Config.id p.H.Sweep.config)
        (Config.id q.H.Sweep.config);
      Alcotest.(check bool)
        (label ^ ": bit-identical prediction")
        true
        (p.H.Sweep.predicted = q.H.Sweep.predicted);
      Alcotest.(check bool)
        (label ^ ": bit-identical measurement")
        true
        (p.H.Sweep.measured = q.H.Sweep.measured))
    a.H.Sweep.points b.H.Sweep.points

let test_sweep_parallel_identical_to_serial () =
  let serial = H.Sweep.baseline experiment in
  let parallel =
    H.Sweep.baseline ~exec:{ Parsweep.serial with Parsweep.jobs = 3 }
      experiment
  in
  Alcotest.(check bool) "sweep non-trivial" true
    (List.length serial.H.Sweep.points > 100);
  check_sweeps_equal "parallel vs serial" serial parallel

(* --- campaign accounting --------------------------------------------------- *)

let test_campaign_accounts_for_every_configuration () =
  let e = H.Campaign.estimate H.Experiments.Ci in
  let enumerated =
    List.fold_left
      (fun acc (ex : H.Experiments.t) ->
        let params = H.Microbench.params ex.arch in
        acc + List.length (Baseline.data_points params ex.problem))
      0
      (H.Experiments.all H.Experiments.Ci)
  in
  (* feasible + rejected partition the enumeration: nothing double-counted,
     nothing silently dropped *)
  Alcotest.(check int) "feasible + rejected = enumerated" enumerated
    (e.H.Campaign.data_points + e.H.Campaign.rejected_points);
  Alcotest.(check (float 1e-9)) "only feasible points billed for compilation"
    (float_of_int e.H.Campaign.data_points *. 20.0 /. 3600.0)
    e.H.Campaign.compile_hours

(* --- the binding-kernel occupancy report ----------------------------------- *)

let test_runner_reports_binding_kernel () =
  let problem = P.make S.heat2d ~space:[| 2048; 2048 |] ~time:256 in
  let cfg = Config.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  let arch = Gpu.Arch.gtx980 in
  let m =
    match Runner.measure arch problem cfg with
    | Ok m -> m
    | Error e -> Alcotest.failf "measure: %s" e
  in
  let kernels =
    match Lower.compile problem cfg with
    | Ok c -> Lower.kernel_sequence c
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let stats =
    match Gpu.Simulator.run_sequence ~jitter:false arch kernels with
    | Ok s -> s
    | Error e -> Alcotest.failf "run_sequence: %s" e
  in
  let binding =
    match stats.Gpu.Simulator.kernels with
    | [] -> Alcotest.fail "no kernels"
    | k :: rest ->
        List.fold_left
          (fun (acc : Gpu.Simulator.kernel_stats)
               (ks : Gpu.Simulator.kernel_stats) ->
            if ks.Gpu.Simulator.resident_blocks < acc.Gpu.Simulator.resident_blocks
            then ks
            else acc)
          k rest
  in
  Alcotest.(check int) "occupancy from the binding kernel"
    binding.Gpu.Simulator.resident_blocks m.Runner.resident_blocks;
  Alcotest.(check bool) "limit diagnosis from the same kernel" true
    (binding.Gpu.Simulator.limiting = m.Runner.limiting)

(* --- Dpool (the domains backend) -------------------------------------------- *)

let test_dpool_matches_serial () =
  let tasks = Array.init 50 (fun i -> i) in
  let f i = (i * i) + 7 in
  let serial = Dpool.map ~jobs:1 ~f tasks in
  let domains = Dpool.map ~jobs:4 ~f tasks in
  Alcotest.(check (array ok)) "point-for-point identical" serial domains

let test_dpool_exception_becomes_error () =
  let f i = if i = 3 then failwith "boom" else i in
  let results = Dpool.map ~jobs:2 ~f (Array.init 6 Fun.id) in
  (match results.(3) with
  | Error msg ->
      Alcotest.(check bool) "message preserved" true
        (Test_util.contains msg "boom")
  | Ok _ -> Alcotest.fail "exception not surfaced");
  Array.iteri
    (fun i r -> if i <> 3 then Alcotest.(check ok) "others fine" (Ok i) r)
    results

(* the Atomic-counter requirement: domain workers bump the same process-wide
   counters the serial path does, so serial == parallel totals hold *)
let test_dpool_counters_match_serial () =
  let f _ =
    Hextime_obs.Metrics.incr obs_work_counter ~by:2;
    0
  in
  let count run =
    let before = Hextime_obs.Metrics.value obs_work_counter in
    run ();
    Hextime_obs.Metrics.value obs_work_counter - before
  in
  let serial =
    count (fun () -> ignore (Dpool.map ~jobs:1 ~f (Array.init 25 Fun.id)))
  in
  let domains =
    count (fun () -> ignore (Dpool.map ~jobs:3 ~f (Array.init 25 Fun.id)))
  in
  Alcotest.(check int) "in-process total" 50 serial;
  Alcotest.(check int) "domains total equals in-process total" serial domains

(* the record literal external callers write, backend named *)
let test_sweep_domains_identical_to_serial () =
  let serial = H.Sweep.baseline experiment in
  let domains =
    H.Sweep.baseline
      ~exec:{ Parsweep.serial with Parsweep.jobs = 2; backend = `Domains }
      experiment
  in
  Alcotest.(check bool) "sweep non-trivial" true
    (List.length serial.H.Sweep.points > 100);
  check_sweeps_equal "domains vs serial" serial domains

(* --- pricing-neutral edits ------------------------------------------------ *)

(* Renaming an architecture changes no pricing input, so the recomputed
   sweep keeps its configurations, drops and model predictions bit for bit,
   every kernel prices to the same noise-free time and the occupancy
   diagnosis is unchanged.  Only the measurement noise may move: the
   simulator seeds it by architecture name (Simulator.jitter_factor). *)
let test_pricing_neutral_rename_stays_warm () =
  let renamed_arch = { Gpu.Arch.gtx980 with Gpu.Arch.name = "gtx980-renamed" } in
  let original = H.Sweep.baseline ~limit:40 experiment in
  let renamed =
    H.Sweep.baseline ~limit:40
      { experiment with H.Experiments.arch = renamed_arch }
  in
  Alcotest.(check bool) "sweep non-trivial" true
    (List.length original.H.Sweep.points > 10);
  Alcotest.(check int) "same population"
    (List.length original.H.Sweep.points)
    (List.length renamed.H.Sweep.points);
  Alcotest.(check int) "same drops" (H.Sweep.dropped original)
    (H.Sweep.dropped renamed);
  let quiet_time arch cfg =
    match Lower.compile experiment.H.Experiments.problem cfg with
    | Error e -> Alcotest.failf "compile: %s" e
    | Ok c -> (
        match
          Gpu.Simulator.run_sequence ~jitter:false arch
            (Lower.kernel_sequence c)
        with
        | Ok s -> s.Gpu.Simulator.total_s
        | Error e -> Alcotest.failf "run_sequence: %s" e)
  in
  List.iter2
    (fun (p : H.Sweep.point) (q : H.Sweep.point) ->
      let cfg = p.H.Sweep.config in
      Alcotest.(check string) "same config" (Config.id cfg)
        (Config.id q.H.Sweep.config);
      Alcotest.(check bool) "bit-identical prediction" true
        (p.H.Sweep.predicted = q.H.Sweep.predicted);
      Alcotest.(check bool) "bit-identical noise-free price" true
        (Int64.bits_of_float (quiet_time Gpu.Arch.gtx980 cfg)
        = Int64.bits_of_float (quiet_time renamed_arch cfg));
      let m = p.H.Sweep.measured and n = q.H.Sweep.measured in
      Alcotest.(check bool) "same occupancy diagnosis" true
        (m.Runner.resident_blocks = n.Runner.resident_blocks
        && m.Runner.spilled_regs = n.Runner.spilled_regs
        && m.Runner.limiting = n.Runner.limiting))
    original.H.Sweep.points renamed.H.Sweep.points

let test_default_jobs_env_validation () =
  let with_env v f =
    let old = Sys.getenv_opt "HEXTIME_JOBS" in
    Unix.putenv "HEXTIME_JOBS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "HEXTIME_JOBS" (Option.value old ~default:""))
      f
  in
  (* "" parses as no override, so this is the machine default *)
  let machine = with_env "" (fun () -> Dpool.default_jobs ()) in
  Alcotest.(check bool) "machine default positive" true (machine >= 1);
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "HEXTIME_JOBS=%S falls back to the machine default" v)
        machine
        (with_env v (fun () -> Dpool.default_jobs ())))
    [ "0"; "-3"; "garbage" ];
  Alcotest.(check int) "valid override honoured" 4
    (with_env "4" (fun () -> Dpool.default_jobs ()))

(* --- Parsweep.map against List.map ------------------------------------------ *)

exception Task_failed of int

let prop_map_is_list_map =
  QCheck.Test.make ~name:"map = List.map, exceptions as Error" ~count:60
    QCheck.(list_of_size Gen.(int_range 0 200) (pair small_int (int_bound 3)))
    (fun tasks ->
      let f (x, r) = if r = 0 then raise (Task_failed x) else (x * 7) - 3 in
      let expected =
        List.map
          (fun t -> try Ok (f t) with e -> Error (Printexc.to_string e))
          tasks
      in
      List.for_all
        (fun jobs ->
          let got, stats = Parsweep.map { Parsweep.serial with jobs } ~f tasks in
          got = expected && stats.Parsweep.total = List.length tasks)
        [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "subsample endpoints" `Quick test_subsample_endpoints;
    Alcotest.test_case "subsample small n" `Quick test_subsample_small_n;
    Alcotest.test_case "subsample identity" `Quick test_subsample_identity;
    Alcotest.test_case "subsample validation" `Quick test_subsample_validation;
    Alcotest.test_case "pool parallel = serial" `Quick
      test_pool_parallel_matches_serial;
    Alcotest.test_case "pool exception -> Error" `Quick
      test_pool_exception_becomes_error;
    Alcotest.test_case "sweep parallel = serial" `Quick
      test_sweep_parallel_identical_to_serial;
    Alcotest.test_case "campaign accounts every configuration" `Quick
      test_campaign_accounts_for_every_configuration;
    Alcotest.test_case "runner reports binding kernel" `Quick
      test_runner_reports_binding_kernel;
    Alcotest.test_case "dpool = serial" `Quick test_dpool_matches_serial;
    Alcotest.test_case "dpool exception -> Error" `Quick
      test_dpool_exception_becomes_error;
    Alcotest.test_case "dpool counters = serial" `Quick
      test_dpool_counters_match_serial;
    Alcotest.test_case "sweep domains = serial" `Quick
      test_sweep_domains_identical_to_serial;
    Alcotest.test_case "pricing-neutral rename stays warm" `Quick
      test_pricing_neutral_rename_stays_warm;
    Alcotest.test_case "HEXTIME_JOBS validation" `Quick
      test_default_jobs_env_validation;
    QCheck_alcotest.to_alcotest prop_map_is_list_map;
  ]
