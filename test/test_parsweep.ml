(* The parallel cached sweep engine, and the sweep-layer bugfix batch:
   subsample endpoint coverage, campaign feasible/rejected accounting, the
   binding-kernel occupancy report, and serial/parallel/cold/warm result
   identity. *)

module Parsweep = Hextime_parsweep.Parsweep
module Dpool = Hextime_parsweep.Dpool
module Cache = Hextime_parsweep.Cache
module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Runner = Hextime_tileopt.Runner
module Baseline = Hextime_tileopt.Baseline
module H = Hextime_harness

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hextime-parsweep-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

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

(* --- Dpool: the in-process path and the recording hooks ------------------- *)

let ok = Alcotest.(result int string)

(* every outcome is recorded exactly once through [on_result], and the
   progress hook ends on the full count, whichever path runs the tasks *)
let test_pool_parallel_matches_serial () =
  let tasks = Array.init 50 (fun i -> i) in
  let f i = (i * i) + 7 in
  let run jobs =
    let recorded = Array.make 50 [] in
    let last_done = ref 0 in
    let results =
      Dpool.map ~jobs
        ~on_result:(fun i r -> recorded.(i) <- r :: recorded.(i))
        ~on_progress:(fun ~done_ ~alive:_ ~busy:_ -> last_done := done_)
        ~f tasks
    in
    Alcotest.(check (array (list ok))) "each outcome recorded once"
      (Array.map (fun r -> [ r ]) results)
      recorded;
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

(* --- Cache ---------------------------------------------------------------- *)

let test_cache_roundtrip () =
  let c = Cache.create ~dir:(fresh_dir ()) () in
  Alcotest.(check (option int)) "miss on empty" None (Cache.get c ~key:"k");
  Cache.put c ~key:"k" 42;
  Alcotest.(check (option int)) "hit after put" (Some 42) (Cache.get c ~key:"k");
  Alcotest.(check (option int)) "other key misses" None (Cache.get c ~key:"k2");
  Alcotest.(check int) "one write" 1 (Cache.writes c);
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  Alcotest.(check int) "two misses" 2 (Cache.misses c)

let test_cache_corrupt_entry_is_a_miss () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  Cache.put c ~key:"k" 42;
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "not a marshalled entry";
      close_out oc)
    (Sys.readdir dir);
  Alcotest.(check (option int)) "corrupt entry misses" None
    (Cache.get c ~key:"k");
  (* and the slot is rewritable *)
  Cache.put c ~key:"k" 43;
  Alcotest.(check (option int)) "recovered" (Some 43) (Cache.get c ~key:"k")

let test_map_resumes_from_cache () =
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let exec = { Parsweep.serial with Parsweep.cache = Some cache } in
  let calls = ref 0 in
  let f i =
    incr calls;
    i * 3
  in
  let key i = Printf.sprintf "resume|%d" i in
  (* a partial sweep completes five points, then "crashes" *)
  let partial, s1 = Parsweep.map exec ~key ~f (List.init 5 Fun.id) in
  Alcotest.(check int) "partial computed" 5 s1.Parsweep.computed;
  Alcotest.(check (list ok)) "partial results"
    (List.init 5 (fun i -> Ok (i * 3)))
    partial;
  (* the restarted full sweep only executes the remaining points *)
  calls := 0;
  let full, s2 = Parsweep.map exec ~key ~f (List.init 12 Fun.id) in
  Alcotest.(check (list ok)) "full results"
    (List.init 12 (fun i -> Ok (i * 3)))
    full;
  Alcotest.(check int) "first five answered from cache" 5
    s2.Parsweep.cache_hits;
  Alcotest.(check int) "only the rest executed" 7 s2.Parsweep.computed;
  Alcotest.(check int) "f called once per missing point" 7 !calls

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

let test_sweep_warm_cache_never_simulates () =
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let exec = { Parsweep.serial with Parsweep.cache = Some cache } in
  let cold, cold_stats = H.Sweep.run ~limit:60 ~exec experiment in
  Alcotest.(check int) "cold run computes everything" 0
    cold_stats.Parsweep.cache_hits;
  Alcotest.(check bool) "cold run executed points" true
    (cold_stats.Parsweep.computed > 0);
  (* warm run: every point must come from the cache, with zero simulator
     invocations in this process (micro-benchmark memos are warm by now) *)
  let before = Gpu.Simulator.invocations () in
  let warm, warm_stats = H.Sweep.run ~limit:60 ~exec experiment in
  Alcotest.(check int) "no simulator call on a warm cache" before
    (Gpu.Simulator.invocations ());
  Alcotest.(check int) "nothing recomputed" 0 warm_stats.Parsweep.computed;
  Alcotest.(check int) "everything from the cache"
    warm_stats.Parsweep.total warm_stats.Parsweep.cache_hits;
  check_sweeps_equal "warm vs cold" cold warm

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

(* --- incremental re-sweeps --------------------------------------------------- *)

(* the acceptance criterion for digest keying: an edit that leaves every
   pricing input unchanged (here: renaming the architecture) re-evaluates
   zero points on a warm cache *)
let test_pricing_neutral_rename_stays_warm () =
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let exec = { Parsweep.serial with Parsweep.cache = Some cache } in
  let cold, cold_stats = H.Sweep.run ~limit:40 ~exec experiment in
  Alcotest.(check bool) "cold run computed" true
    (cold_stats.Parsweep.computed > 0);
  let renamed =
    {
      experiment with
      H.Experiments.arch = { Gpu.Arch.gtx980 with Gpu.Arch.name = "gtx980-renamed" };
    }
  in
  let warm, warm_stats = H.Sweep.run ~limit:40 ~exec renamed in
  Alcotest.(check int) "rename re-prices nothing" 0 warm_stats.Parsweep.computed;
  Alcotest.(check int) "every point answered warm" warm_stats.Parsweep.total
    warm_stats.Parsweep.cache_hits;
  check_sweeps_equal "renamed warm vs cold" cold warm

(* --- cache hygiene ----------------------------------------------------------- *)

let test_cache_sweeps_stale_tmp_files () =
  let dir = fresh_dir () in
  (* a real dead pid: run a child to completion and reap it *)
  let dead_pid =
    let pid =
      Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
        Unix.stderr
    in
    ignore (Unix.waitpid [] pid);
    pid
  in
  let write name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc "half-written entry";
    close_out oc
  in
  let dead_tmp = Printf.sprintf "00000000deadbeef.bin.tmp.%d" dead_pid in
  let live_tmp = Printf.sprintf "00000000cafef00d.bin.tmp.%d" (Unix.getpid ()) in
  write dead_tmp;
  write live_tmp;
  write "0000000000bad1de.bin.tmp.notapid";
  let c = Cache.create ~dir () in
  let files = Array.to_list (Sys.readdir dir) in
  Alcotest.(check bool) "dead writer's temp removed" false
    (List.mem dead_tmp files);
  Alcotest.(check bool) "live writer's temp kept" true (List.mem live_tmp files);
  Alcotest.(check bool) "unparseable temp removed" false
    (List.mem "0000000000bad1de.bin.tmp.notapid" files);
  Cache.put c ~key:"k" 1;
  Alcotest.(check (option int)) "cache functional after the sweep" (Some 1)
    (Cache.get c ~key:"k")

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

(* --- cache round-trips under QCheck ------------------------------------------ *)

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc bytes;
  close_out oc

let prop_cache_roundtrip_and_collision =
  QCheck.Test.make ~name:"round-trip + fabricated filename collisions" ~count:25
    QCheck.(pair (pair small_string small_string) (small_list small_int))
    (fun ((k1, k2), v) ->
      let c = Cache.create ~dir:(fresh_dir ()) () in
      Cache.put c ~key:k1 v;
      let roundtrip = (Cache.get c ~key:k1 : int list option) = Some v in
      let collision_safe =
        k1 = k2
        || begin
             (* simulate two keys hashing to the same filename: k1's entry
                lands where a put of k2 would; the stored key is verified on
                read, so the collision must read as a miss, never as k1's
                value *)
             copy_file (Cache.entry_path c k1) (Cache.entry_path c k2);
             (Cache.get c ~key:k2 : int list option) = None
           end
      in
      roundtrip && collision_safe)

let prop_cache_truncated_entry_is_a_miss =
  QCheck.Test.make ~name:"truncated entries miss, never crash" ~count:25
    QCheck.(pair small_string (int_bound 64))
    (fun (k, cut) ->
      let c = Cache.create ~dir:(fresh_dir ()) () in
      Cache.put c ~key:k [ 1; 2; 3 ];
      let path = Cache.entry_path c k in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let keep = min cut (max 0 (n - 1)) in
      let bytes = really_input_string ic keep in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      (Cache.get c ~key:k : int list option) = None)

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
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache corrupt entry" `Quick
      test_cache_corrupt_entry_is_a_miss;
    Alcotest.test_case "map resumes from cache" `Quick
      test_map_resumes_from_cache;
    Alcotest.test_case "stale write-temps swept" `Quick
      test_cache_sweeps_stale_tmp_files;
    Alcotest.test_case "sweep parallel = serial" `Quick
      test_sweep_parallel_identical_to_serial;
    Alcotest.test_case "warm cache never simulates" `Quick
      test_sweep_warm_cache_never_simulates;
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
    QCheck_alcotest.to_alcotest prop_cache_roundtrip_and_collision;
    QCheck_alcotest.to_alcotest prop_cache_truncated_entry_is_a_miss;
  ]
