(* The parallel sweep engine, and the sweep-layer bugfix batch: subsample
   endpoint coverage, campaign feasible/rejected accounting, the
   binding-kernel occupancy report, and serial/parallel result identity;
   a sweep's measured bytes pinned across commits, and the shape-by-shape
   sweep against the per-configuration path. *)

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
   simulator seeds it by architecture name (Simulator.seed_prefix). *)
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

(* --- a sweep's measured bytes, pinned -------------------------------------- *)

(* Every byte a sweep reports, as text: config ids, the model's Talg and
   T_tile and the measured time and throughput as %h, the occupancy
   diagnosis, and both drop counts.  Two sweeps with equal digests are
   equal bit for bit. *)
let sweep_digest (s : H.Sweep.sweep) =
  let limit = function
    | Gpu.Occupancy.Threads -> "threads"
    | Blocks -> "blocks"
    | Shared_memory -> "smem"
    | Registers -> "regs"
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun (p : H.Sweep.point) ->
      let m = p.H.Sweep.measured in
      Printf.bprintf b "%s %h %h %h %h %d %d %s\n"
        (Config.id p.H.Sweep.config)
        p.H.Sweep.predicted.Hextime_core.Model.talg
        p.H.Sweep.predicted.Hextime_core.Model.t_tile m.Runner.time_s
        m.Runner.gflops m.Runner.resident_blocks m.Runner.spilled_regs
        (limit m.Runner.limiting))
    s.H.Sweep.points;
  Printf.bprintf b "dropped %d %d\n" s.H.Sweep.infeasible_model
    s.H.Sweep.infeasible_runner;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Ranks 1–3, both presets, single and double precision, extents that are
   not tile multiples, a device that rejects 1024-thread blocks, and a
   limit whose subsample keeps two or three of each shape's ten thread
   counts.  The expected values were captured before sweeps were
   evaluated shape by shape, and must not move: the measured bytes of a
   sweep change only with a re-baselined accuracy gate. *)
let golden_sweeps =
  let e ?(arch = Gpu.Arch.gtx980) ?precision stencil space time =
    { H.Experiments.arch; problem = P.make ?precision stencil ~space ~time }
  in
  [
    ("jacobi1d 10007 T300", None, e S.jacobi1d [| 10007 |] 300);
    ( "heat2d 1000x999 T100 titanx",
      None,
      e ~arch:Gpu.Arch.titanx S.heat2d [| 1000; 999 |] 100 );
    ( "gradient2d 512x500 T64 f64 thr<=512",
      None,
      e
        ~arch:{ Gpu.Arch.gtx980 with Gpu.Arch.max_threads_per_block = 512 }
        ~precision:P.F64 S.gradient2d [| 512; 500 |] 64 );
    ("heat3d 96^3 T32", None, e S.heat3d [| 96; 96; 96 |] 32);
    ( "laplacian3d 64x50x100 T20 titanx limit 200",
      Some 200,
      e ~arch:Gpu.Arch.titanx S.laplacian3d [| 64; 50; 100 |] 20 );
  ]

let golden_digests =
  [
    ("jacobi1d 10007 T300", ((850, 0), (0, "4795d711fdb11bc626c02a17172085c5")));
    ( "heat2d 1000x999 T100 titanx",
      ((850, 0), (0, "09f87ce08b1eb62cf7935b17b6d8b663")) );
    ( "gradient2d 512x500 T64 f64 thr<=512",
      ((765, 0), (85, "235269ea66ff5d189c558f395c298c11")) );
    ("heat3d 96^3 T32", ((850, 0), (0, "54fae1a0fbec60c7e753ee6410af4c65")));
    ( "laplacian3d 64x50x100 T20 titanx limit 200",
      ((200, 0), (0, "09d965fbf729321a14a143b40ebc17dd")) );
  ]

let test_sweep_golden_bytes () =
  let got =
    List.map
      (fun (name, limit, e) ->
        let s = H.Sweep.baseline ?limit e in
        ( name,
          ( (List.length s.H.Sweep.points, s.H.Sweep.infeasible_model),
            (s.H.Sweep.infeasible_runner, sweep_digest s) ) ))
      golden_sweeps
  in
  Alcotest.(check (list (pair string (pair (pair int int) (pair int string)))))
    "points, drops and digest per sweep" golden_digests got

(* --- the shape-by-shape sweep against the per-configuration path ----------- *)

(* What a sweep computes, spelled out one configuration at a time: the
   model, then the compiler and the simulator. *)
let per_config_sweep ?limit (e : H.Experiments.t) =
  let params = H.Microbench.params e.arch in
  let citer = H.Microbench.citer e.arch e.problem.P.stencil in
  let configs =
    Baseline.data_points params e.problem |> H.Sweep.subsample limit
  in
  let points, infeasible_model, infeasible_runner =
    List.fold_right
      (fun config (pts, im, ir) ->
        match Hextime_core.Model.predict params ~citer e.problem config with
        | Error _ -> (pts, im + 1, ir)
        | Ok predicted -> (
            match Runner.measure e.arch e.problem config with
            | Error _ -> (pts, im, ir + 1)
            | Ok measured -> ({ H.Sweep.config; predicted; measured } :: pts, im, ir)))
      configs ([], 0, 0)
  in
  ({ H.Sweep.points; infeasible_model; infeasible_runner }, List.length configs)

(* The six paper stencils plus a 1D and a second-order stencil, each on
   both presets, at seeded extents that are not tile multiples (small ones
   leave some footprint bands sparse).  Every other stencil runs its
   GTX 980 sweep on a copy capped at 512 threads per block, which rejects
   every shape's 1024-thread configuration. *)
let generated_experiments () =
  let rng = Random.State.make [| 20 |] in
  let odd lo hi = (2 * ((lo + Random.State.int rng (hi - lo)) / 2)) + 1 in
  let space (st : S.t) =
    match st.S.rank with
    | 1 -> [| odd 100 70000 |]
    | 2 -> [| odd 40 1100; odd 40 1100 |]
    | _ -> [| odd 20 130; odd 20 130; odd 20 130 |]
  in
  let capped = { Gpu.Arch.gtx980 with Gpu.Arch.max_threads_per_block = 512 } in
  List.concat
    (List.mapi
       (fun i st ->
         List.map
           (fun arch ->
             let time = 3 + Random.State.int rng 250 in
             { H.Experiments.arch; problem = P.make st ~space:(space st) ~time })
           [ (if i mod 2 = 0 then Gpu.Arch.gtx980 else capped); Gpu.Arch.titanx ])
       (S.benchmarks_2d @ S.benchmarks_3d @ [ S.jacobi1d; S.heat3d_order2 ]))

let test_sweep_by_shape_equals_per_config () =
  let runner_drops = ref 0 in
  List.iter
    (fun (e : H.Experiments.t) ->
      let reference = per_config_sweep e in
      List.iter
        (fun limit ->
          (* 851 keeps every configuration, as no limit does *)
          let want, total =
            match limit with
            | Some 37 -> per_config_sweep ?limit e
            | _ -> reference
          in
          runner_drops := !runner_drops + want.H.Sweep.infeasible_runner;
          List.iter
            (fun jobs ->
              let label =
                Printf.sprintf "%s on %s, limit %s, jobs %d"
                  (P.id e.problem) e.arch.Gpu.Arch.name
                  (match limit with None -> "none" | Some n -> string_of_int n)
                  jobs
              in
              let got, stats =
                H.Sweep.run ?limit ~exec:{ Parsweep.serial with jobs } e
              in
              Alcotest.(check int) (label ^ ": stats.total") total
                stats.Parsweep.total;
              (* one structural comparison; the per-point checks name
                 the first difference when there is one *)
              if got <> want then check_sweeps_equal label want got)
            [ 1; 2 ])
        [ None; Some 37; Some 851 ])
    (generated_experiments ());
  Alcotest.(check bool) "runner rejections covered" true (!runner_drops > 0)

(* The thread half takes the configurations of its own shape only, and a
   shape lowered from one thread count serves every other: the shape half
   ignores threads. *)
let test_thread_half_pairs_with_its_shape () =
  let problem = experiment.H.Experiments.problem in
  let cfg ?(t_t = 8) ?(t_s = [| 16; 64 |]) threads =
    Config.make_exn ~t_t ~t_s ~threads:[| threads |]
  in
  let shape =
    match Lower.shape_half problem (cfg 128) with
    | Ok sh -> sh
    | Error e -> Alcotest.failf "shape_half: %s" e
  in
  List.iter
    (fun (what, other) ->
      Alcotest.check_raises what
        (Invalid_argument "Lower.thread_half: configuration of another tile shape")
        (fun () -> ignore (Lower.thread_half shape other)))
    [
      ("another t_T", cfg ~t_t:10 128);
      ("another hexagonal t_S", cfg ~t_s:[| 20; 64 |] 128);
      ("another inner t_S", cfg ~t_s:[| 16; 96 |] 128);
    ];
  List.iter
    (fun threads ->
      let c = cfg threads in
      Alcotest.(check bool)
        (Config.id c ^ ": compile = thread_half of the thr128 shape")
        true
        (Lower.compile problem c = Ok (Lower.thread_half shape c)))
    Hextime_tileopt.Space.thread_candidates

(* Pricing with a tile shape's pre-hashed label prefix is pricing from
   scratch: the same base time and the same salted times for salts 0-4,
   bit for bit, for every kernel of seeded sweeps of ranks 1-3 on both
   presets and of an f64 problem.  A prefix the label does not start with
   (the previous shape's), or one hashed for the other preset, is
   refused, as a thread half of another shape is. *)
let test_seed_prefix_pairs_with_its_shape () =
  let rng = Random.State.make [| 21 |] in
  let extent lo hi = lo + Random.State.int rng (hi - lo) in
  let problems =
    [
      P.make S.jacobi1d ~space:[| extent 5000 70000 |] ~time:(extent 40 300);
      P.make S.heat2d
        ~space:[| extent 200 1100; extent 200 1100 |]
        ~time:(extent 30 200);
      P.make S.heat3d
        ~space:[| extent 40 130; extent 40 130; extent 40 130 |]
        ~time:(extent 10 60);
    ]
  in
  let experiments =
    List.concat_map
      (fun problem ->
        [ (Gpu.Arch.gtx980, problem); (Gpu.Arch.titanx, problem) ])
      problems
    @ [
        ( Gpu.Arch.titanx,
          P.make ~precision:P.F64 S.gradient2d
            ~space:[| extent 200 1100; extent 200 1100 |]
            ~time:(extent 30 200) );
      ]
  in
  let refuses msg f =
    match f () with
    | _ -> false
    | exception Invalid_argument m -> String.equal m msg
  in
  let bits = Int64.bits_of_float in
  let same arch (a : Gpu.Simulator.priced) (b : Gpu.Simulator.priced) =
    bits a.base_s = bits b.base_s
    && List.for_all
         (fun salt ->
           bits (Gpu.Simulator.priced_time ~salt arch a)
           = bits (Gpu.Simulator.priced_time ~salt arch b))
         [ 0; 1; 2; 3; 4 ]
  in
  let kernels = ref 0 and failures = ref [] in
  let fail what = failures := what :: !failures in
  List.iter
    (fun ((arch : Gpu.Arch.t), problem) ->
      let other =
        if String.equal arch.name Gpu.Arch.gtx980.name then Gpu.Arch.titanx
        else Gpu.Arch.gtx980
      in
      let previous = ref None in
      List.iter
        (fun cfg ->
          match Lower.shape_half problem cfg with
          | Error _ -> ()
          | Ok shape ->
              let label_prefix = Lower.label_prefix shape in
              let prefix = Gpu.Simulator.seed_prefix arch label_prefix in
              let foreign = Gpu.Simulator.seed_prefix other label_prefix in
              let stale =
                match !previous with
                | Some (p, pre) when not (String.equal p label_prefix) -> Some pre
                | _ -> None
              in
              previous := Some (label_prefix, prefix);
              List.iter
                (fun ((k : Gpu.Kernel.t), _) ->
                  incr kernels;
                  let what = arch.name ^ " " ^ k.label in
                  (match
                     ( Gpu.Simulator.price arch k,
                       Gpu.Simulator.price ~prefix arch k )
                   with
                  | Ok a, Ok b ->
                      if not (same arch a b) then fail (what ^ ": times")
                  | Error a, Error b ->
                      if not (String.equal a b) then fail (what ^ ": errors")
                  | _ -> fail (what ^ ": one side rejected"));
                  if
                    not
                      (refuses "Simulator.price: seed prefix of another architecture"
                         (fun () -> Gpu.Simulator.price ~prefix:foreign arch k))
                  then fail (what ^ ": other preset's prefix accepted");
                  match stale with
                  | None -> ()
                  | Some pre ->
                      if
                        not
                          (refuses
                             "Simulator.price: label does not start with the \
                              seed prefix"
                             (fun () -> Gpu.Simulator.price ~prefix:pre arch k))
                      then fail (what ^ ": previous shape's prefix accepted"))
                (Lower.kernel_sequence (Lower.thread_half shape cfg)))
        (Baseline.data_points (H.Microbench.params arch) problem))
    experiments;
  Alcotest.(check bool)
    (Printf.sprintf "%d kernels priced" !kernels)
    true (!kernels > 5000);
  Alcotest.(check (list string)) "no kernel differs or is mispaired" []
    (List.rev !failures)

(* Each surviving point prices its two kernels once and replays its
   program five times (the min-of-five protocol), on the calling domain
   and on worker domains alike.  CI's trace-verify requires both counters
   and the benchmark's prices_per_point reads the first. *)
let test_sweep_counts_prices_and_replays () =
  let count name =
    Option.value ~default:0
      (Hextime_obs.Metrics.find_counter (Hextime_obs.Metrics.snapshot ()) name)
  in
  let e ?(arch = Gpu.Arch.gtx980) stencil space time =
    { H.Experiments.arch; problem = P.make stencil ~space ~time }
  in
  List.iter
    (fun (e : H.Experiments.t) ->
      (* calibration prices kernels too, once per process: do it first *)
      ignore (H.Microbench.params e.arch : Hextime_core.Params.t);
      ignore (H.Microbench.citer e.arch e.problem.P.stencil : float);
      List.iter
        (fun jobs ->
          let label =
            Printf.sprintf "%s on %s, jobs %d" (P.id e.problem)
              e.arch.Gpu.Arch.name jobs
          in
          let prices = count "simulator.price"
          and replays = count "simulator.replay" in
          let s = H.Sweep.baseline ~exec:{ Parsweep.serial with jobs } e in
          let points = List.length s.H.Sweep.points in
          Alcotest.(check bool) (label ^ ": points survive") true (points > 100);
          Alcotest.(check int) (label ^ ": no runner rejections") 0
            s.H.Sweep.infeasible_runner;
          Alcotest.(check int) (label ^ ": 2 prices a point") (2 * points)
            (count "simulator.price" - prices);
          Alcotest.(check int) (label ^ ": 5 replays a point") (5 * points)
            (count "simulator.replay" - replays))
        [ 1; 2 ])
    [
      experiment;
      e ~arch:Gpu.Arch.titanx S.jacobi1d [| 10007 |] 300;
      e S.heat3d [| 96; 96; 96 |] 32;
    ]

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
    Alcotest.test_case "sweep golden bytes" `Quick test_sweep_golden_bytes;
    Alcotest.test_case "sweep by shape = per-configuration path" `Quick
      test_sweep_by_shape_equals_per_config;
    Alcotest.test_case "thread half pairs with its shape only" `Quick
      test_thread_half_pairs_with_its_shape;
    Alcotest.test_case "seed prefix pairs with its shape only" `Quick
      test_seed_prefix_pairs_with_its_shape;
    Alcotest.test_case "sweep: 2 prices and 5 replays a point" `Quick
      test_sweep_counts_prices_and_replays;
    QCheck_alcotest.to_alcotest prop_map_is_list_map;
  ]
