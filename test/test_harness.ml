(* Harness: micro-benchmarks (Tables 3/4 protocol), experiment grids, the
   baseline sweep, and the validation analysis — end-to-end at CI scale.
   These tests assert the paper's qualitative claims, not absolute numbers. *)

module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module Params = Hextime_core.Params
module H = Hextime_harness
module Runner = Hextime_tileopt.Runner

let arch = Gpu.Arch.gtx980

let test_microbench_ranges () =
  let p = H.Microbench.params arch in
  (* L in the paper's Table 3 regime: a few milliseconds per GB *)
  let l_gb = Params.l_per_gb p in
  Alcotest.(check bool)
    (Printf.sprintf "L = %.2e s/GB plausible" l_gb)
    true
    (l_gb > 1e-3 && l_gb < 5e-2);
  (* tau_sync around a nanosecond; T_sync around a microsecond *)
  Alcotest.(check bool) "tau_sync range" true
    (p.Params.tau_sync > 1e-10 && p.Params.tau_sync < 1e-8);
  Alcotest.(check bool) "T_sync range" true
    (p.Params.t_sync > 1e-7 && p.Params.t_sync < 1e-5)

let test_microbench_direction () =
  (* Titan X has more bandwidth: its L must be lower (Table 3) *)
  let g = H.Microbench.params Gpu.Arch.gtx980 in
  let t = H.Microbench.params Gpu.Arch.titanx in
  Alcotest.(check bool) "L(titanx) < L(gtx980)" true
    (t.Params.l_word < g.Params.l_word)

let test_citer_table4_shape () =
  let c st = H.Microbench.citer arch st in
  (* 2D first-order stencils: tens of nanoseconds *)
  Alcotest.(check bool) "jacobi2d range" true
    (c S.jacobi2d > 1e-8 && c S.jacobi2d < 1e-7);
  (* gradient's sqrt makes it markedly more expensive (Table 4: ~1.8x) *)
  Alcotest.(check bool) "gradient > 1.4x jacobi" true
    (c S.gradient2d > 1.4 *. c S.jacobi2d);
  (* 3D stencils are several times more expensive (Table 4: ~4x) *)
  Alcotest.(check bool) "heat3d >> heat2d" true
    (c S.heat3d > 2.5 *. c S.heat2d);
  (* Titan X's lower clock: slightly larger C_iter (Table 4) *)
  Alcotest.(check bool) "titanx citer larger" true
    (H.Microbench.citer Gpu.Arch.titanx S.jacobi2d > c S.jacobi2d)

let test_citer_deterministic () =
  let a = H.Microbench.citer arch S.laplacian2d in
  let b = H.Microbench.citer arch S.laplacian2d in
  Alcotest.(check (float 0.0)) "memoized and deterministic" a b

(* The memos are keyed by what calibration reads, not by names: a modified
   copy of a preset, calibrated after the preset, gets its own constants,
   and a renamed copy shares the preset's but keeps its own name. *)
let test_microbench_memo_keys () =
  let preset = H.Microbench.params arch in
  let fewer_sms = { arch with Gpu.Arch.n_sm = 8 } in
  let p = H.Microbench.params fewer_sms in
  Alcotest.(check int) "n_sm of the copy" 8 p.Params.n_sm;
  let fresh =
    Params.of_microbenchmarks fewer_sms
      ~l_word:(H.Microbench.measure_l fewer_sms)
      ~tau_sync:(H.Microbench.measure_tau_sync fewer_sms)
      ~t_sync:(H.Microbench.measure_t_sync fewer_sms)
  in
  Alcotest.(check bool) "the copy's own calibration" true (p = fresh);
  Alcotest.(check bool) "differs from the preset's" true
    (p.Params.l_word <> preset.Params.l_word);
  let renamed = { arch with Gpu.Arch.name = "gtx980-copy" } in
  let r = H.Microbench.params renamed in
  Alcotest.(check string) "renamed copy's name" "gtx980-copy" r.Params.arch_name;
  Alcotest.(check bool) "renamed copy shares the constants" true
    (r.Params.l_word = preset.Params.l_word
    && r.Params.tau_sync = preset.Params.tau_sync
    && r.Params.t_sync = preset.Params.t_sync);
  let c = H.Microbench.citer arch S.heat2d in
  let slow = { arch with Gpu.Arch.clock_ghz = arch.Gpu.Arch.clock_ghz /. 2.0 } in
  let c_slow = H.Microbench.citer slow S.heat2d in
  (* about double: the clock also reseeds the sampled shapes *)
  Alcotest.(check bool)
    (Printf.sprintf "half clock doubles C_iter (%.6g vs %.6g)" c_slow c)
    true
    (Float.abs ((c_slow /. c) -. 2.0) < 0.01);
  Alcotest.(check (float 0.0)) "renamed arch, same C_iter" c
    (H.Microbench.citer renamed S.heat2d)

(* Worker domains of a parallel sweep or index build calibrate new
   contexts concurrently: every racing first calibration must land in the
   memos, and each domain must get the answer a serial, memo-free
   calibration gives. *)
let test_microbench_memos_across_domains () =
  let domains = 4 in
  (* n_sm above the preset's 16, so no other test has calibrated them *)
  let variants = List.init 32 (fun k -> { arch with Gpu.Arch.n_sm = 17 + k }) in
  List.iter
    (fun a ->
      Alcotest.(check bool) "variant not calibrated yet" false
        (H.Microbench.memoized a S.heat2d))
    variants;
  let ready = Atomic.make 0 in
  let calibrate mine () =
    (* start together, so the first inserts race *)
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    List.map
      (fun a -> (a, H.Microbench.params a, H.Microbench.citer a S.heat2d))
      mine
  in
  let answers =
    List.init domains (fun d ->
        Domain.spawn
          (calibrate (List.filteri (fun i _ -> i mod domains = d) variants)))
    |> List.concat_map Domain.join
  in
  Alcotest.(check int) "every variant calibrated" (List.length variants)
    (List.length answers);
  List.iter
    (fun ((a : Gpu.Arch.t), p, c) ->
      let serial =
        Params.of_microbenchmarks a ~l_word:(H.Microbench.measure_l a)
          ~tau_sync:(H.Microbench.measure_tau_sync a)
          ~t_sync:(H.Microbench.measure_t_sync a)
      in
      let name = Printf.sprintf "n_sm = %d" a.Gpu.Arch.n_sm in
      Alcotest.(check bool) (name ^ ": serial constants") true (p = serial);
      Alcotest.(check (float 0.0)) (name ^ ": serial C_iter")
        (H.Microbench.measure_citer a S.heat2d)
        c;
      Alcotest.(check bool) (name ^ ": memoized") true
        (H.Microbench.memoized a S.heat2d))
    answers

let test_experiment_grids () =
  Alcotest.(check int) "paper 2D experiments" 80
    (List.length (H.Experiments.all_2d H.Experiments.Paper));
  Alcotest.(check int) "paper 3D experiments" 48
    (List.length (H.Experiments.all_3d H.Experiments.Paper));
  Alcotest.(check int) "paper total" 128
    (List.length (H.Experiments.all H.Experiments.Paper));
  Alcotest.(check bool) "ci is small" true
    (List.length (H.Experiments.all H.Experiments.Ci) <= 16)

let test_scale_parsing () =
  (match H.Experiments.scale_of_string "paper" with
  | Ok H.Experiments.Paper -> ()
  | _ -> Alcotest.fail "paper scale");
  (match H.Experiments.scale_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus scale accepted");
  Alcotest.(check string) "roundtrip" "quick"
    (H.Experiments.scale_to_string H.Experiments.Quick)

let experiment =
  {
    H.Experiments.arch;
    problem = P.make S.heat2d ~space:[| 2048; 2048 |] ~time:512;
  }

let sweep = (H.Sweep.baseline experiment).H.Sweep.points

let test_sweep_population () =
  (* most of the 850 configurations both predict and simulate *)
  Alcotest.(check bool)
    (Printf.sprintf "%d points survive" (List.length sweep))
    true
    (List.length sweep > 700)

let test_sweep_limit () =
  let limited = (H.Sweep.baseline ~limit:50 experiment).H.Sweep.points in
  Alcotest.(check bool) "limit respected" true (List.length limited <= 50)

let test_top_performing () =
  let top = H.Sweep.top_performing ~within:0.2 sweep in
  let best = H.Sweep.best_gflops sweep in
  Alcotest.(check bool) "top subset non-empty" true (List.length top > 0);
  Alcotest.(check bool) "top is a subset" true
    (List.length top <= List.length sweep);
  List.iter
    (fun (p : H.Sweep.point) ->
      Alcotest.(check bool) "within 20% of best" true
        (p.measured.Runner.gflops >= 0.8 *. best))
    top

let test_validation_headline () =
  (* the paper's signature: poor RMSE overall, good RMSE in the top band *)
  let s = H.Validation.analyze sweep in
  Alcotest.(check bool)
    (Printf.sprintf "RMSE(all) = %.0f%% is large" (100.0 *. s.H.Validation.rmse_all))
    true
    (s.H.Validation.rmse_all > 0.25);
  Alcotest.(check bool)
    (Printf.sprintf "RMSE(top) = %.1f%% is small" (100.0 *. s.H.Validation.rmse_top))
    true
    (s.H.Validation.rmse_top < 0.20);
  Alcotest.(check bool) "top band much better than whole" true
    (s.H.Validation.rmse_top < 0.5 *. s.H.Validation.rmse_all)

let test_scatter () =
  let sc = H.Validation.scatter sweep in
  Alcotest.(check int) "one pair per point" (List.length sweep) (List.length sc);
  List.iter
    (fun (p, m) ->
      Alcotest.(check bool) "positive coordinates" true (p > 0.0 && m > 0.0))
    sc

let test_tables_render () =
  let t2 = Hextime_prelude.Tabulate.render (H.Tables.table2 ()) in
  Alcotest.(check bool) "table2 mentions nSM" true
    (String.length t2 > 0
    && List.exists
         (fun line -> String.length line >= 6 && String.sub line 0 6 = "| nSM ")
         (String.split_on_char '\n' t2));
  let data = H.Tables.table3_data () in
  Alcotest.(check int) "table3 covers both archs" 2 (List.length data);
  let t4 = H.Tables.table4_data () in
  Alcotest.(check int) "table4 covers six benchmarks" 6 (List.length t4)

let test_fig4_surface () =
  (* CI-sized surface: same code path as the paper-sized figure *)
  let f = H.Figures.fig4_data ~space:[| 512; 512 |] ~time:256 () in
  Alcotest.(check int) "slice at tS1 = 8" 8 f.H.Figures.t_s1;
  Alcotest.(check bool) "surface populated" true (List.length f.H.Figures.cells > 50);
  let _, _, minv = f.H.Figures.minimum in
  List.iter
    (fun (_, _, v) ->
      Alcotest.(check bool) "minimum is minimal" true (v >= minv))
    f.H.Figures.cells

let test_model_simulator_coherence () =
  (* a top-band configuration: the model and the simulator agree on its
     time within the paper's accuracy regime *)
  let problem = P.make S.heat2d ~space:[| 2048; 2048 |] ~time:256 in
  let params = H.Microbench.params arch in
  let citer = H.Microbench.citer arch S.heat2d in
  let cfg =
    Hextime_tiling.Config.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |]
  in
  match
    ( Hextime_core.Model.predict params ~citer problem cfg,
      Runner.measure arch problem cfg )
  with
  | Ok pr, Ok m ->
      let ratio = pr.Hextime_core.Model.talg /. m.Runner.time_s in
      Alcotest.(check bool)
        (Printf.sprintf "model/simulated = %.2f in (0.7, 1.4)" ratio)
        true
        (ratio > 0.7 && ratio < 1.4)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_report_markdown () =
  let md = H.Report.markdown H.Experiments.Ci in
  List.iter
    (fun needle ->
      let n = String.length needle and h = String.length md in
      let rec go i = i + n <= h && (String.sub md i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "report has %S" needle) true (go 0))
    [
      "# hextime reproduction report";
      "## Table 1";
      "## Table 2";
      "## Table 3";
      "## Table 4";
      "## Figure 3";
      "## Figure 4";
      "## Figure 5";
      "## Figure 6";
      "7.36e-03";
    ]

(* --- hexwatch: arg-min quality on hand-built sweeps -------------------------- *)

(* A synthetic sweep point: the model's opinion (talg) and the machine's
   (time_s/gflops) are set independently, so the arg-min metric can be
   checked against hand-computed values. *)
let mk_point ~talg ~time_s ~gflops =
  {
    H.Sweep.config =
      Hextime_tiling.Config.make_exn ~t_t:2 ~t_s:[| 4; 32 |] ~threads:[| 64 |];
    predicted =
      {
        Hextime_core.Model.talg;
        t_tile = talg;
        m_transfer = 0.0;
        c_compute = 0.0;
        k = 1;
        n_wavefronts = 1;
        wavefront_blocks = 1;
        sm_rounds = 1;
        shared_words = 0;
        io_words = 0;
        chunks = 1;
      };
    measured =
      {
        Runner.time_s;
        gflops;
        resident_blocks = 1;
        spilled_regs = 0;
        limiting = Gpu.Occupancy.Threads;
      };
  }

let test_argmin_quality () =
  (* the model's favourite (smallest talg) is also the measured winner *)
  let good =
    H.Validation.analyze
      [
        mk_point ~talg:1.0 ~time_s:1.0 ~gflops:100.0;
        mk_point ~talg:2.0 ~time_s:2.0 ~gflops:50.0;
        mk_point ~talg:3.0 ~time_s:4.0 ~gflops:25.0;
      ]
  in
  Alcotest.(check (float 1e-9)) "perfect pick" 1.0
    good.H.Validation.argmin_quality;
  Alcotest.(check bool) "perfect pick is in band" true
    good.H.Validation.argmin_in_band;
  (* the model's favourite measures at 40% of the sweep's best *)
  let bad =
    H.Validation.analyze
      [
        mk_point ~talg:1.0 ~time_s:2.5 ~gflops:40.0;
        mk_point ~talg:2.0 ~time_s:1.0 ~gflops:100.0;
        mk_point ~talg:3.0 ~time_s:4.0 ~gflops:25.0;
      ]
  in
  Alcotest.(check (float 1e-9)) "mediocre pick" 0.4
    bad.H.Validation.argmin_quality;
  Alcotest.(check bool) "mediocre pick is out of band" false
    bad.H.Validation.argmin_in_band;
  (* just inside the default 20% band *)
  let edge =
    H.Validation.analyze
      [
        mk_point ~talg:1.0 ~time_s:1.25 ~gflops:80.0;
        mk_point ~talg:2.0 ~time_s:1.0 ~gflops:100.0;
      ]
  in
  Alcotest.(check (float 1e-9)) "edge pick" 0.8
    edge.H.Validation.argmin_quality;
  Alcotest.(check bool) "80% of best is in the 20% band" true
    edge.H.Validation.argmin_in_band;
  (* a wider band flips the verdict for the mediocre pick *)
  let wide =
    H.Validation.analyze ~top_within:0.65
      [
        mk_point ~talg:1.0 ~time_s:2.5 ~gflops:40.0;
        mk_point ~talg:2.0 ~time_s:1.0 ~gflops:100.0;
      ]
  in
  Alcotest.(check bool) "in band once the band is wide enough" true
    wide.H.Validation.argmin_in_band

let test_validation_metrics_shape () =
  let s =
    H.Validation.analyze
      [
        mk_point ~talg:1.0 ~time_s:1.0 ~gflops:100.0;
        mk_point ~talg:2.0 ~time_s:2.0 ~gflops:50.0;
      ]
  in
  let m = H.Validation.metrics s in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("metrics carry " ^ name) true
        (List.mem_assoc name m))
    [
      "points"; "rmse_all"; "top_points"; "rmse_top"; "correlation_top";
      "best_gflops"; "argmin_quality"; "argmin_in_band";
    ];
  Alcotest.(check (float 0.0)) "argmin_in_band encodes as 1.0" 1.0
    (List.assoc "argmin_in_band" m)

(* --- hexwatch: the accuracy gate --------------------------------------------- *)

let acc_summary ?(rmse_all = 0.5) ?(rmse_top = 0.08) ?(correlation_top = 0.9)
    ?(argmin_quality = 0.95) ?(argmin_in_band = true) () =
  {
    H.Validation.points = 850;
    rmse_all;
    top_points = 10;
    rmse_top;
    correlation_top;
    best_gflops = 100.0;
    argmin_quality;
    argmin_in_band;
  }

let acc ?(scale = H.Experiments.Ci) rows =
  {
    H.Accuracy.scale;
    code_version = "test-v1";
    rows =
      List.map
        (fun (experiment, summary) -> { H.Accuracy.experiment; summary })
        rows;
  }

let test_accuracy_json_roundtrip () =
  let t =
    acc
      [
        ("gtx980/heat2d", acc_summary ());
        ("titanx/heat3d", acc_summary ~argmin_in_band:false ~rmse_top:0.31 ());
      ]
  in
  match H.Accuracy.of_json (H.Accuracy.to_json t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
      Alcotest.(check int) "rows survive" 2 (List.length t'.H.Accuracy.rows);
      Alcotest.(check string) "code version" "test-v1"
        t'.H.Accuracy.code_version;
      let r' = List.nth t'.H.Accuracy.rows 1 in
      Alcotest.(check string) "experiment name" "titanx/heat3d"
        r'.H.Accuracy.experiment;
      Alcotest.(check (float 0.0)) "rmse_top bit-exact" 0.31
        r'.H.Accuracy.summary.H.Validation.rmse_top;
      Alcotest.(check bool) "in-band flag survives" false
        r'.H.Accuracy.summary.H.Validation.argmin_in_band

let test_accuracy_compare () =
  let baseline = acc [ ("e1", acc_summary ()); ("e2", acc_summary ()) ] in
  (* identical figures: clean *)
  Alcotest.(check int) "identical: no drift" 0
    (List.length (H.Accuracy.compare ~baseline baseline));
  (* improvements never drift *)
  let better =
    acc [ ("e1", acc_summary ~rmse_top:0.01 ~argmin_quality:1.0 ());
          ("e2", acc_summary ()) ]
  in
  Alcotest.(check int) "improvement: no drift" 0
    (List.length (H.Accuracy.compare ~baseline better));
  (* a top-band RMSE regression beyond tolerance drifts *)
  let worse = acc [ ("e1", acc_summary ~rmse_top:0.15 ()); ("e2", acc_summary ()) ] in
  (match H.Accuracy.compare ~baseline worse with
  | [ d ] ->
      Alcotest.(check string) "drifting metric" "rmse_top" d.H.Accuracy.d_metric;
      Alcotest.(check string) "drifting experiment" "e1" d.H.Accuracy.d_experiment
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  (* within tolerance: clean *)
  let slightly =
    acc [ ("e1", acc_summary ~rmse_top:0.09 ()); ("e2", acc_summary ()) ]
  in
  Alcotest.(check int) "within tolerance: no drift" 0
    (List.length (H.Accuracy.compare ~baseline slightly));
  (* a missing experiment drifts *)
  let missing = acc [ ("e1", acc_summary ()) ] in
  (match H.Accuracy.compare ~baseline missing with
  | [ d ] -> Alcotest.(check string) "missing experiment" "e2" d.H.Accuracy.d_experiment
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  (* falling out of the band drifts regardless of tolerance *)
  let out_of_band =
    acc
      [
        ("e1", acc_summary ~argmin_quality:0.92 ~argmin_in_band:false ());
        ("e2", acc_summary ());
      ]
  in
  Alcotest.(check bool) "band exit drifts" true
    (List.exists
       (fun (d : H.Accuracy.drift) -> d.H.Accuracy.d_metric = "argmin_in_band")
       (H.Accuracy.compare ~baseline out_of_band))

(* --- hexwatch: history rendering --------------------------------------------- *)

let test_history_render () =
  let entry kind metrics =
    Hextime_obs.Ledger.make ~metrics ~kind ~code_version:"test-v1" ()
  in
  let entries =
    [
      entry "validate" [ ("rmse_top", 0.0835); ("points_per_sec", 61234.0) ];
      entry "bench" [ ("cold_sweep_points_per_sec", 152345.0) ];
    ]
  in
  Alcotest.(check (list string))
    "columns filtered to those present"
    [ "rmse_top"; "points_per_sec"; "cold_sweep_points_per_sec" ]
    (H.History.columns_of H.History.default_columns entries);
  let table = H.History.render entries in
  List.iter
    (fun needle ->
      let n = String.length needle and h = String.length table in
      let rec go i = i + n <= h && (String.sub table i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "table has %S" needle) true (go 0))
    [ "when"; "kind"; "validate"; "bench"; "8.3%"; "-" ];
  let md = H.History.markdown entries in
  Alcotest.(check bool) "markdown is a pipe table" true
    (String.length md > 0 && md.[0] = '|');
  match H.History.json entries with
  | Hextime_prelude.Minijson.List [ _; _ ] -> ()
  | _ -> Alcotest.fail "json renders one element per entry"

(* --- hexlens: history csv / --since ----------------------------------------- *)

module Ledger = Hextime_obs.Ledger

let stamped ?(kind = "validate") ?(labels = []) ?(metrics = []) ~time ~rev () =
  {
    (Ledger.make ~labels ~metrics ~kind ~code_version:"test-v1" ()) with
    Ledger.time_unix = time;
    git_rev = rev;
  }

let test_history_csv () =
  let entries =
    [
      stamped ~metrics:[ ("rmse_top", 0.5) ] ~time:0.0 ~rev:"abc1234" ();
      stamped ~kind:"bench"
        ~metrics:[ ("cold_sweep_points_per_sec", 152345.0625) ]
        ~time:90061.0 ~rev:"" ();
    ]
  in
  match String.split_on_char '\n' (String.trim (H.History.csv entries)) with
  | [ header; r1; r2 ] ->
      Alcotest.(check string)
        "header row" "when,kind,rev,code,rmse_top,cold_sweep_points_per_sec"
        header;
      (* ISO8601 full-second timestamps, raw (unscaled) numbers, empty
         cells for missing metrics *)
      Alcotest.(check string)
        "first row" "1970-01-01T00:00:00Z,validate,abc1234,test-v1,0.5," r1;
      Alcotest.(check string)
        "second row" "1970-01-02T01:01:01Z,bench,,test-v1,,152345.0625" r2
  | lines -> Alcotest.failf "expected 3 csv lines, got %d" (List.length lines)

let test_history_since () =
  let entries =
    [
      stamped ~time:100.0 ~rev:"aaaa111" ();
      stamped ~time:200.0 ~rev:"bbbb222" ();
      stamped ~time:1754000000.0 ~rev:"cccc333" ();
    ]
  in
  (* an ISO8601 date keeps entries stamped at or after it *)
  (match H.History.since "2025-01-01" entries with
  | Ok [ e ] ->
      Alcotest.(check string) "date spec keeps the recent entry" "cccc333"
        e.Ledger.git_rev
  | Ok es -> Alcotest.failf "date spec kept %d entries" (List.length es)
  | Error msg -> Alcotest.fail msg);
  (* the epoch date keeps everything *)
  (match H.History.since "1970-01-01" entries with
  | Ok es -> Alcotest.(check int) "epoch keeps all" 3 (List.length es)
  | Error msg -> Alcotest.fail msg);
  (* a git rev prefix keeps from its first entry onward *)
  (match H.History.since "bbbb" entries with
  | Ok es ->
      Alcotest.(check (list string))
        "rev spec keeps the tail" [ "bbbb222"; "cccc333" ]
        (List.map (fun (e : Ledger.entry) -> e.Ledger.git_rev) es)
  | Error msg -> Alcotest.fail msg);
  (* neither a date nor a known rev: an error, not silence *)
  match H.History.since "zzz" entries with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense --since spec accepted"

(* --- hexlens: attribution diffing (hextime explain) -------------------------- *)

module Model = Hextime_core.Model
module Config = Hextime_tiling.Config

(* The acceptance experiment: the same problem and tile priced under the
   production constants and under a copy with L (seconds per word of
   global traffic) doubled.  The explain diff must name the paper's
   global-memory term as the dominant mover, and its delta must equal the
   direct Model.attribution delta to 1e-9 relative. *)
let explain_problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:128

let explain_config =
  match Config.make ~t_t:8 ~t_s:[| 32; 32 |] ~threads:[| 256 |] with
  | Ok c -> c
  | Error msg -> failwith ("explain test config: " ^ msg)

let explain_entry params =
  let citer = H.Microbench.citer arch S.heat2d in
  match Model.attribution params ~citer explain_problem explain_config with
  | Error msg -> failwith ("explain test attribution: " ^ msg)
  | Ok (pr, comps) ->
      ( (pr, comps),
        Ledger.make
          ~labels:
            [
              ("arch", "gtx980");
              ("stencil", "heat2d");
              ("space", "512x512");
              ("time", "128");
              ("config", Config.id explain_config);
            ]
          ~metrics:(H.Explain.attribution_metrics pr comps)
          ~kind:"audit" ~code_version:"test-v1" () )

let perturbed_params () =
  let p = H.Microbench.params arch in
  Hextime_core.Params.of_microbenchmarks arch
    ~l_word:(2.0 *. p.Params.l_word)
    ~tau_sync:p.Params.tau_sync ~t_sync:p.Params.t_sync

let test_explain_dominant_term () =
  let (_, comps_a), entry_a = explain_entry (H.Microbench.params arch) in
  let (_, comps_b), entry_b = explain_entry (perturbed_params ()) in
  let deltas =
    H.Explain.diff
      ~a:(H.Explain.stored_components entry_a)
      ~b:(H.Explain.stored_components entry_b)
  in
  (match H.Explain.dominant deltas with
  | None -> Alcotest.fail "doubling L moved no term"
  | Some d ->
      Alcotest.(check string)
        "dominant term is the global-memory transfer" "global_mem" d.H.Explain.t_name;
      (* the diffed delta is exactly the Model.attribution delta *)
      let direct =
        (Hextime_obs.Attribution.to_list comps_b
        |> List.assoc "global_mem")
        -. (Hextime_obs.Attribution.to_list comps_a
           |> List.assoc "global_mem")
      in
      Alcotest.(check bool)
        (Printf.sprintf "delta matches Model.attribution to 1e-9 rel (%g vs %g)"
           d.H.Explain.t_delta direct)
        true
        (Float.abs (d.H.Explain.t_delta -. direct)
        <= 1e-9 *. Float.max (Float.abs direct) 1e-300));
  (* the report renders and names the term *)
  match H.Explain.render ~a:entry_a ~b:entry_b with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "report names the dominant term" true
        (contains "dominant term: global_mem" report)

let test_explain_recompute_verifies_stored () =
  (* an audit-style record carrying both stored attr.* metrics and full
     provenance labels: the recomputation must agree to 1e-9 *)
  let _, entry = explain_entry (H.Microbench.params arch) in
  Alcotest.(check bool) "record is eligible" true (H.Explain.eligible entry);
  (match H.Explain.verify entry with
  | None -> Alcotest.fail "verify found nothing to cross-check"
  | Some rel ->
      Alcotest.(check bool)
        (Printf.sprintf "stored vs recomputed max rel err %g <= 1e-9" rel)
        true (rel <= 1e-9));
  (* a record with labels only (no stored components) recomputes *)
  let labels_only =
    Ledger.make ~labels:entry.Ledger.labels ~kind:"audit"
      ~code_version:"test-v1" ()
  in
  Alcotest.(check bool) "labels-only record is eligible" true
    (H.Explain.eligible labels_only);
  (match H.Explain.recompute labels_only with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("labels-only recompute: " ^ msg));
  (* a bare record is not *)
  let bare = Ledger.make ~kind:"bench" ~code_version:"test-v1" () in
  Alcotest.(check bool) "bare record is not eligible" false
    (H.Explain.eligible bare)

let test_explain_decision_flips () =
  let entry m c k =
    Ledger.make
      ~labels:[ ("config", "tT8-tS32x32-thr256") ]
      ~metrics:
        [
          ("pred.m_transfer", m);
          ("pred.c_compute", c);
          ("pred.k", float_of_int k);
        ]
      ~kind:"audit" ~code_version:"test-v1" ()
  in
  (* memory-bound -> compute-bound plus a k change *)
  let flips =
    H.Explain.decision_flips ~a:(entry 2.0e-3 1.0e-3 4) ~b:(entry 1.0e-3 2.0e-3 5)
  in
  Alcotest.(check int) "two discrete decisions moved" 2 (List.length flips);
  let joined = String.concat "\n" flips in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "bound flip reported" true
    (contains "max(m', c) decision flipped" joined);
  Alcotest.(check bool) "k change reported" true (contains "k changed" joined);
  (* identical records: nothing discrete moved *)
  Alcotest.(check int) "no flips on identical records" 0
    (List.length
       (H.Explain.decision_flips ~a:(entry 2.0e-3 1.0e-3 4)
          ~b:(entry 2.0e-3 1.0e-3 4)))

let suite =
  [
    Alcotest.test_case "microbench ranges (Table 3)" `Quick test_microbench_ranges;
    Alcotest.test_case "microbench direction" `Quick test_microbench_direction;
    Alcotest.test_case "citer shape (Table 4)" `Quick test_citer_table4_shape;
    Alcotest.test_case "citer deterministic" `Quick test_citer_deterministic;
    Alcotest.test_case "microbench memos keyed by pricing" `Quick
      test_microbench_memo_keys;
    Alcotest.test_case "experiment grids" `Quick test_experiment_grids;
    Alcotest.test_case "scale parsing" `Quick test_scale_parsing;
    Alcotest.test_case "sweep population" `Quick test_sweep_population;
    Alcotest.test_case "sweep limit" `Quick test_sweep_limit;
    Alcotest.test_case "top performing subset" `Quick test_top_performing;
    Alcotest.test_case "validation headline (Sec 5.3)" `Quick test_validation_headline;
    Alcotest.test_case "scatter (Fig 3)" `Quick test_scatter;
    Alcotest.test_case "tables render" `Quick test_tables_render;
    Alcotest.test_case "fig4 surface" `Quick test_fig4_surface;
    Alcotest.test_case "report markdown" `Slow test_report_markdown;
    Alcotest.test_case "model/simulator coherence" `Quick
      test_model_simulator_coherence;
    Alcotest.test_case "argmin quality (hand-built sweeps)" `Quick
      test_argmin_quality;
    Alcotest.test_case "validation metrics shape" `Quick
      test_validation_metrics_shape;
    Alcotest.test_case "accuracy JSON round-trip" `Quick
      test_accuracy_json_roundtrip;
    Alcotest.test_case "accuracy compare gate" `Quick test_accuracy_compare;
    Alcotest.test_case "history render" `Quick test_history_render;
    Alcotest.test_case "history csv" `Quick test_history_csv;
    Alcotest.test_case "history --since selection" `Quick test_history_since;
    Alcotest.test_case "explain: perturbed L names global_mem" `Quick
      test_explain_dominant_term;
    Alcotest.test_case "explain: recompute cross-checks stored" `Quick
      test_explain_recompute_verifies_stored;
    Alcotest.test_case "explain: discrete decision flips" `Quick
      test_explain_decision_flips;
    Alcotest.test_case "microbench memos across domains" `Quick
      test_microbench_memos_across_domains;
  ]
