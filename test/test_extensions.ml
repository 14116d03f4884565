(* The extension modules: pseudo-code emission, the naive (non-time-tiled)
   lowering, the local solver, CSV export, the ASCII scatter plot, and the
   Table 1 and Figure 5 renderers the reproduction report prints. *)

module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module C = Hextime_tiling.Config
module Codegen = Hextime_tiling.Codegen
module Naive = Hextime_tiling.Naive
module Hexgeom = Hextime_tiling.Hexgeom
module Params = Hextime_core.Params
module Model = Hextime_core.Model
module Descent = Hextime_tileopt.Descent
module Space = Hextime_tileopt.Space
module H = Hextime_harness

let arch = Gpu.Arch.gtx980

let params =
  Params.of_microbenchmarks arch ~l_word:3.0e-11 ~tau_sync:1.0e-9 ~t_sync:1.0e-6

let citer = 4.0e-8
let problem = P.make S.heat2d ~space:[| 1024; 1024 |] ~time:128
let cfg = C.make_exn ~t_t:8 ~t_s:[| 8; 64 |] ~threads:[| 256 |]

let ok = function Ok x -> x | Error e -> Alcotest.failf "error: %s" e

(* --- codegen ----------------------------------------------------------- *)

let test_codegen_kernel_structure () =
  let text = ok (Codegen.kernel problem cfg ~family:Hexgeom.Green) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "kernel has %S" needle) true
        (Test_util.contains text needle))
    [
      "__global__ void heat2d_green";
      "__shared__ float smem";
      "__syncthreads();";
      "for (int q = 0; q <";
      "for (int r = 0; r < 8";
      "0.125";
    ]

let test_codegen_host_structure () =
  let text = ok (Codegen.host problem cfg) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "host has %S" needle) true
        (Test_util.contains text needle))
    [ "heat2d_yellow<<<"; "heat2d_green <<<"; "cudaDeviceSynchronize" ]

let test_codegen_program_both_kernels () =
  let text = ok (Codegen.program problem cfg) in
  Alcotest.(check bool) "yellow kernel present" true
    (Test_util.contains text "__global__ void heat2d_yellow");
  Alcotest.(check bool) "green kernel present" true
    (Test_util.contains text "__global__ void heat2d_green")

let test_codegen_nonlinear_body () =
  let gproblem = P.make S.gradient2d ~space:[| 1024; 1024 |] ~time:64 in
  let text = ok (Codegen.kernel gproblem cfg ~family:Hexgeom.Green) in
  Alcotest.(check bool) "nonlinear body marked" true
    (Test_util.contains text "user_body")

let test_codegen_rejects () =
  match Codegen.program problem (C.make_exn ~t_t:4 ~t_s:[| 8 |] ~threads:[| 32 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rank mismatch accepted"

let test_codegen_3d () =
  let p3 = P.make S.heat3d ~space:[| 96; 96; 96 |] ~time:16 in
  let cfg3 = C.make_exn ~t_t:4 ~t_s:[| 4; 8; 32 |] ~threads:[| 128 |] in
  let text = ok (Codegen.kernel p3 cfg3 ~family:Hexgeom.Yellow) in
  Alcotest.(check bool) "3D indices" true (Test_util.contains text "const int l =");
  Alcotest.(check bool) "sub-slab loop" true (Test_util.contains text "sub-slabs")

(* --- naive lowering ----------------------------------------------------- *)

let test_naive_compile () =
  let kernel, launches =
    ok (Naive.compile problem ~block:[| 16; 64 |] ~threads:256)
  in
  Alcotest.(check int) "one launch per time step" 128 launches;
  (* 1024/16 * 1024/64 = 64 * 16 blocks *)
  Alcotest.(check int) "block count" 1024 (Gpu.Kernel.total_blocks kernel)

let test_naive_3d () =
  let p3 = P.make S.laplacian3d ~space:[| 96; 96; 96 |] ~time:8 in
  let kernel, launches = ok (Naive.compile p3 ~block:[| 8; 8; 32 |] ~threads:256) in
  Alcotest.(check int) "launches" 8 launches;
  Alcotest.(check int) "blocks" (12 * 12 * 3) (Gpu.Kernel.total_blocks kernel)

let test_naive_validation () =
  (match Naive.compile problem ~block:[| 16; 48 |] ~threads:256 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-warp-multiple block accepted");
  match Naive.compile problem ~block:[| 16 |] ~threads:256 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rank mismatch accepted"

let test_naive_is_memory_bound () =
  (* the motivation: tuned naive is far slower than tuned time tiling *)
  let naive = ok (Naive.best arch problem) in
  let ctx = { Hextime_tileopt.Strategies.arch; params; citer; problem } in
  let hhc = ok (Hextime_tileopt.Strategies.model_top10 ctx) in
  let speedup =
    naive.Naive.time_s
    /. hhc.Hextime_tileopt.Strategies.measurement.Hextime_tileopt.Runner.time_s
  in
  Alcotest.(check bool)
    (Printf.sprintf "time tiling speedup %.1fx > 3x" speedup)
    true (speedup > 3.0)

(* --- descent solver ------------------------------------------------------ *)

let test_descent_finds_good_point () =
  let sol = ok (Descent.solve ~restarts:6 params ~citer problem) in
  Alcotest.(check bool) "positive objective" true (sol.Descent.talg > 0.0);
  Alcotest.(check bool) "evaluations counted" true (sol.Descent.evaluations > 10);
  let gap = Descent.optimality_gap params ~citer problem sol in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.1f%% below 30%%" (100.0 *. gap))
    true
    (gap >= -1e-9 && gap < 0.30)

let test_descent_verbatim_struggles_more () =
  (* not a strict theorem, but on this instance the rugged verbatim
     objective must not beat the smooth one's gap by a wide margin *)
  let smooth = ok (Descent.solve ~restarts:4 params ~citer problem) in
  let rugged =
    ok (Descent.solve ~variant:Model.Paper_verbatim ~restarts:4 params ~citer problem)
  in
  let gs = Descent.optimality_gap params ~citer problem smooth in
  let gr =
    Descent.optimality_gap ~variant:Model.Paper_verbatim params ~citer problem
      rugged
  in
  Alcotest.(check bool)
    (Printf.sprintf "verbatim gap %.1f%% >= smooth gap %.1f%% - 5%%"
       (100.0 *. gr) (100.0 *. gs))
    true
    (gr >= gs -. 0.05)

let test_descent_restart_validation () =
  match Descent.solve ~restarts:0 params ~citer problem with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero restarts accepted"

(* --- export -------------------------------------------------------------- *)

let sweep =
  (H.Sweep.baseline ~limit:40 { H.Experiments.arch; problem }).H.Sweep.points

let test_export_sweep_csv () =
  let csv = H.Export.sweep_csv sweep in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + one row per point"
    (1 + List.length sweep)
    (List.length lines);
  (match lines with
  | header :: _ ->
      Alcotest.(check bool) "header fields" true
        (Test_util.contains header "predicted_s" && Test_util.contains header "measured_s")
  | [] -> Alcotest.fail "empty csv");
  (* every data row has the full column count *)
  List.iteri
    (fun i line ->
      if i > 0 then
        Alcotest.(check int)
          (Printf.sprintf "row %d arity" i)
          10
          (List.length (String.split_on_char ',' line)))
    lines

let test_export_scatter_csv () =
  let csv = H.Export.scatter_csv [ (1.0, 2.0); (3.0, 4.0) ] in
  Alcotest.(check bool) "rows present" true
    (Test_util.contains csv "1.000000e+00,2.000000e+00")

let test_export_write_file () =
  let path = Filename.temp_file "hextime" ".csv" in
  (match H.Export.write_file ~path "a,b\n1,2\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" e);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "roundtrip" "a,b" line

let test_export_bad_path () =
  match H.Export.write_file ~path:"/nonexistent-dir/x.csv" "a" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad path accepted"

(* --- skewed (time-skewing wavefront) scheme -------------------------------- *)

let test_skewed_correctness () =
  List.iter
    (fun (st, sp, tm, cfg) ->
      let problem = P.make st ~space:sp ~time:tm in
      let init = Hextime_stencil.Reference.default_init problem in
      match Hextime_tiling.Skewed.verify problem cfg ~init with
      | Ok () -> ()
      | Error e -> Alcotest.failf "skewed %s: %s" st.S.name e)
    [
      (S.jacobi1d, [| 40 |], 10, C.make_exn ~t_t:4 ~t_s:[| 6 |] ~threads:[| 32 |]);
      (S.heat2d, [| 24; 32 |], 8, C.make_exn ~t_t:4 ~t_s:[| 5; 32 |] ~threads:[| 64 |]);
      (S.gradient2d, [| 20; 32 |], 6, C.make_exn ~t_t:2 ~t_s:[| 4; 32 |] ~threads:[| 32 |]);
      (S.heat3d, [| 12; 10; 32 |], 5, C.make_exn ~t_t:2 ~t_s:[| 4; 4; 32 |] ~threads:[| 32 |]);
      (S.jacobi2d_order2, [| 22; 32 |], 5, C.make_exn ~t_t:2 ~t_s:[| 5; 32 |] ~threads:[| 32 |]);
      (S.heat2d, [| 24; 32 |], 6, C.make_exn ~t_t:2 ~t_s:[| 4; 32 |] ~threads:[| 32 |]);
    ]

let test_skewed_wavefront_structure () =
  let widths =
    Hextime_tiling.Skewed.wavefront_widths ~order:1 ~t_s:8 ~t_t:4 ~space:100
      ~time:16
  in
  (* ramps up from 1 and back down to 1 *)
  Alcotest.(check int) "starts at one tile" 1 (List.hd widths);
  Alcotest.(check int) "ends at one tile" 1 (List.hd (List.rev widths));
  (* total tiles cover the skewed area *)
  Alcotest.(check bool) "many more wavefronts than hexagonal" true
    (List.length widths
    > Hextime_tiling.Hexgeom.num_wavefronts ~t_t:4 ~time:16)

let test_skewed_kernel_batching () =
  let p2 = P.make S.heat2d ~space:[| 256; 64 |] ~time:32 in
  let cfg2 = C.make_exn ~t_t:8 ~t_s:[| 16; 32 |] ~threads:[| 64 |] in
  let kernels = ok (Hextime_tiling.Skewed.compile_kernels p2 cfg2) in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 kernels in
  let widths =
    Hextime_tiling.Skewed.wavefront_widths ~order:1 ~t_s:16 ~t_t:8 ~space:256
      ~time:32
  in
  Alcotest.(check int) "batched launches cover all wavefronts"
    (List.length widths) total;
  (* batches preserve per-wavefront block totals *)
  let kernel_blocks =
    List.fold_left
      (fun a (k, n) -> a + (n * Gpu.Kernel.total_blocks k))
      0 kernels
  in
  Alcotest.(check int) "total tiles preserved"
    (List.fold_left ( + ) 0 widths)
    kernel_blocks

let test_skewed_slower_than_hexagonal () =
  let problem2 = P.make S.heat2d ~space:[| 2048; 2048 |] ~time:512 in
  let cfg2 = C.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  let hex = ok (Hextime_tileopt.Runner.measure arch problem2 cfg2) in
  let skew = ok (Hextime_tiling.Skewed.measure arch problem2 cfg2) in
  Alcotest.(check bool)
    (Printf.sprintf "skewed %.3fs >= hexagonal %.3fs" skew
       hex.Hextime_tileopt.Runner.time_s)
    true
    (skew >= hex.Hextime_tileopt.Runner.time_s *. 0.98)

(* --- overtile (redundant-computation) scheme -------------------------------- *)

let test_overtile_correctness () =
  List.iter
    (fun (st, sp, tm, cfg) ->
      let problem = P.make st ~space:sp ~time:tm in
      let init = Hextime_stencil.Reference.default_init problem in
      match Hextime_tiling.Overtile.verify problem cfg ~init with
      | Ok () -> ()
      | Error e -> Alcotest.failf "overtile %s: %s" st.S.name e)
    [
      (S.jacobi1d, [| 50 |], 9, C.make_exn ~t_t:4 ~t_s:[| 8 |] ~threads:[| 32 |]);
      (S.heat2d, [| 24; 32 |], 7, C.make_exn ~t_t:2 ~t_s:[| 6; 32 |] ~threads:[| 64 |]);
      (S.gradient2d, [| 20; 32 |], 5, C.make_exn ~t_t:4 ~t_s:[| 5; 32 |] ~threads:[| 32 |]);
      (S.heat3d, [| 12; 10; 32 |], 4, C.make_exn ~t_t:2 ~t_s:[| 4; 5; 32 |] ~threads:[| 32 |]);
      (S.jacobi2d_order2, [| 20; 32 |], 4, C.make_exn ~t_t:2 ~t_s:[| 5; 32 |] ~threads:[| 32 |]);
      (S.heat2d, [| 24; 32 |], 6, C.make_exn ~t_t:2 ~t_s:[| 4; 32 |] ~threads:[| 32 |]);
    ]

let test_overtile_redundancy () =
  (* redundancy grows with the time-tile depth and is > 1 whenever t_t > 1 *)
  let r tt = Hextime_tiling.Overtile.redundancy_factor ~order:1 ~t_s:[| 16; 64 |] ~t_t:tt in
  Alcotest.(check bool) "tT=2 modest" true (r 2 > 1.0 && r 2 < 1.2);
  Alcotest.(check bool) "monotone" true (r 8 > r 4 && r 4 > r 2);
  Alcotest.(check bool) "tT=8 substantial" true (r 8 > 1.5)

let test_overtile_fewer_launches () =
  let problem2 = P.make S.heat2d ~space:[| 1024; 1024 |] ~time:64 in
  let cfg2 = C.make_exn ~t_t:4 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  let kernels = ok (Hextime_tiling.Overtile.compile_kernels problem2 cfg2) in
  let launches = List.fold_left (fun a (_, n) -> a + n) 0 kernels in
  (* ceil(T / t_t) = 16 launches, half of hexagonal's 32 *)
  Alcotest.(check int) "one launch per band" 16 launches

let test_overtile_loses_at_deep_tiles () =
  (* the crossover: deep time tiles make redundant computation dominate *)
  let problem2 = P.make S.heat2d ~space:[| 4096; 4096 |] ~time:1024 in
  let cfg = C.make_exn ~t_t:12 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  let hex = ok (Hextime_tileopt.Runner.measure arch problem2 cfg) in
  let ot = ok (Hextime_tiling.Overtile.measure arch problem2 cfg) in
  Alcotest.(check bool)
    (Printf.sprintf "overtile %.3fs slower than hexagonal %.3fs at tT=12" ot
       hex.Hextime_tileopt.Runner.time_s)
    true
    (ot > 1.2 *. hex.Hextime_tileopt.Runner.time_s)

(* --- autotune -------------------------------------------------------------- *)

let test_autotune_improves_with_budget () =
  let small =
    ok (Hextime_tileopt.Autotune.search ~budget:30 ~seed:"t" arch params problem)
  in
  let large =
    ok (Hextime_tileopt.Autotune.search ~budget:300 ~seed:"t" arch params problem)
  in
  Alcotest.(check bool) "budget respected (small)" true
    (small.Hextime_tileopt.Autotune.measurements <= 30 + 12);
  Alcotest.(check bool) "larger budget no worse" true
    (large.Hextime_tileopt.Autotune.time_s
    <= small.Hextime_tileopt.Autotune.time_s +. 1e-12)

let test_autotune_deterministic () =
  let a = ok (Hextime_tileopt.Autotune.search ~budget:60 ~seed:"d" arch params problem) in
  let b = ok (Hextime_tileopt.Autotune.search ~budget:60 ~seed:"d" arch params problem) in
  Alcotest.(check (float 0.0)) "same seed, same result"
    a.Hextime_tileopt.Autotune.time_s b.Hextime_tileopt.Autotune.time_s

let test_autotune_validation () =
  match Hextime_tileopt.Autotune.search ~budget:5 arch params problem with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tiny budget accepted"

(* --- campaign -------------------------------------------------------------- *)

let test_campaign_ci_estimate () =
  let e = H.Campaign.estimate H.Experiments.Ci in
  Alcotest.(check bool) "points counted" true (e.H.Campaign.data_points > 1000);
  Alcotest.(check bool) "compile cost positive" true (e.H.Campaign.compile_hours > 0.0);
  Alcotest.(check bool) "run cost positive" true (e.H.Campaign.run_hours > 0.0);
  (* compile cost is exactly feasible points * 20s: rejected configurations
     must no longer inflate the compilation bill *)
  Alcotest.(check (float 1e-6)) "compile arithmetic"
    (float_of_int e.H.Campaign.data_points *. 20.0 /. 3600.0)
    e.H.Campaign.compile_hours;
  Alcotest.(check bool) "rejected counted separately" true
    (e.H.Campaign.rejected_points >= 0);
  let text = H.Campaign.render e in
  Alcotest.(check bool) "renders" true (Test_util.contains text "dedicated machine time");
  Alcotest.(check bool) "renders rejected count" true
    (Test_util.contains text "rejected")

let test_campaign_validation () =
  Alcotest.check_raises "runs < 1"
    (Invalid_argument "Campaign.estimate: runs < 1") (fun () ->
      ignore (H.Campaign.estimate ~runs_per_point:0 H.Experiments.Ci))

(* --- double precision ------------------------------------------------------ *)

let problem_f64 =
  P.make ~precision:Hextime_stencil.Problem.F64 S.heat2d
    ~space:[| 1024; 1024 |] ~time:128

let test_f64_footprints_double () =
  let fp32 = Hextime_tiling.Footprint.of_problem problem cfg in
  let fp64 = Hextime_tiling.Footprint.of_problem problem_f64 cfg in
  Alcotest.(check int) "input words double"
    (2 * fp32.Hextime_tiling.Footprint.input_words)
    fp64.Hextime_tiling.Footprint.input_words;
  Alcotest.(check int) "shared words double"
    (2 * fp32.Hextime_tiling.Footprint.shared_words)
    fp64.Hextime_tiling.Footprint.shared_words;
  Alcotest.(check int) "chunk structure unchanged"
    fp32.Hextime_tiling.Footprint.chunks fp64.Hextime_tiling.Footprint.chunks

let test_f64_citer_penalty () =
  let f32 = H.Microbench.citer arch S.heat2d in
  let f64 =
    H.Microbench.citer ~precision:Hextime_stencil.Problem.F64 arch S.heat2d
  in
  Alcotest.(check bool)
    (Printf.sprintf "F64 C_iter %.2e >> F32 %.2e" f64 f32)
    true
    (f64 > 3.0 *. f32)

let test_f64_model_and_measurement () =
  let citer64 =
    H.Microbench.citer ~precision:Hextime_stencil.Problem.F64 arch S.heat2d
  in
  (match Model.predict params ~citer:citer64 problem_f64 cfg with
  | Ok pr -> Alcotest.(check bool) "F64 prediction positive" true (pr.Model.talg > 0.0)
  | Error e -> Alcotest.failf "F64 predict: %s" e);
  let m32 = ok (Hextime_tileopt.Runner.measure arch problem cfg) in
  let m64 = ok (Hextime_tileopt.Runner.measure arch problem_f64 cfg) in
  Alcotest.(check bool)
    (Printf.sprintf "F64 %.1f GF/s well below F32 %.1f"
       m64.Hextime_tileopt.Runner.gflops m32.Hextime_tileopt.Runner.gflops)
    true
    (m64.Hextime_tileopt.Runner.gflops
    < 0.5 *. m32.Hextime_tileopt.Runner.gflops)

let test_f64_shrinks_feasible_space () =
  let s32 = Space.shapes params problem in
  let s64 = Space.shapes params problem_f64 in
  Alcotest.(check bool)
    (Printf.sprintf "F64 feasible %d < F32 %d" (List.length s64)
       (List.length s32))
    true
    (List.length s64 < List.length s32)

let test_f64_id_suffix () =
  Alcotest.(check string) "id carries precision" "heat2d:1024x1024xT128-f64"
    (P.id problem_f64)

(* --- glossary (Table 1) --------------------------------------------------- *)

let test_glossary_complete () =
  let g = Hextime_core.Glossary.table1 in
  Alcotest.(check bool) "all Table 1 rows present" true (List.length g >= 25);
  (* the elementary/composite split of the paper *)
  let elementary =
    List.filter
      (fun (e : Hextime_core.Glossary.entry) ->
        e.Hextime_core.Glossary.kind = Hextime_core.Glossary.Elementary)
      g
  in
  Alcotest.(check int) "13 elementary parameters" 13 (List.length elementary);
  (match Hextime_core.Glossary.find "C_iter" with
  | Some e ->
      Alcotest.(check bool) "C_iter is SH-composite" true
        (e.Hextime_core.Glossary.kind = Hextime_core.Glossary.Composite
        && List.length e.Hextime_core.Glossary.origin = 2)
  | None -> Alcotest.fail "C_iter missing");
  Alcotest.(check bool) "unknown symbol" true
    (Hextime_core.Glossary.find "nope" = None);
  let text = Hextime_core.Glossary.render () in
  Alcotest.(check bool) "renders" true (Test_util.contains text "tau_sync")

let test_glossary_render_rows () =
  (* Table 1 as the report prints it: one pipe-table row per entry, in the
     paper's order, each led by the entry's symbol *)
  let lines = String.split_on_char '\n' (Hextime_core.Glossary.render ()) in
  let rows =
    List.filter (fun l -> String.length l > 2 && String.sub l 0 2 = "| ") lines
  in
  let g = Hextime_core.Glossary.table1 in
  (* the first pipe row is the header *)
  Alcotest.(check int) "one row per entry" (List.length g) (List.length rows - 1);
  List.iter2
    (fun (e : Hextime_core.Glossary.entry) row ->
      let lead = "| " ^ e.Hextime_core.Glossary.name ^ " " in
      Alcotest.(check bool) (Printf.sprintf "row for %s" e.Hextime_core.Glossary.name)
        true
        (String.length row >= String.length lead
        && String.sub row 0 (String.length lead) = lead))
    g (List.tl rows)

(* --- Figure 5 candidate table --------------------------------------------- *)

let test_fig5_full_candidate_table () =
  (* the report prints every within-10% candidate, however many there are *)
  let candidates =
    List.init 40 (fun i ->
        let p = 1.0 +. (0.002 *. float_of_int i) in
        (Printf.sprintf "shape%02d" i, p, p +. 0.05))
  in
  let f =
    {
      H.Figures.experiment = "synthetic";
      baseline_best_s = 2.0;
      candidates;
      best_candidate_s = 1.05;
      improvement_pct = 47.5;
    }
  in
  let text = H.Figures.render_fig5 f in
  List.iter
    (fun (id, _, _) ->
      Alcotest.(check bool) (Printf.sprintf "row for %s" id) true
        (Test_util.contains text ("| " ^ id ^ " ")))
    candidates;
  Alcotest.(check bool) "summary counts every candidate" true
    (Test_util.contains text "over 40 candidates")

(* --- scatter plot --------------------------------------------------------- *)

let test_scatter_render () =
  let pairs = List.init 50 (fun i -> (float_of_int (i + 1), float_of_int (i + 2))) in
  let s = H.Scatter.render ~width:32 ~height:10 ~title:"t" pairs in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "title first" true (List.hd lines = "t");
  (* canvas rows plus title and footer *)
  Alcotest.(check bool) "row count" true (List.length lines >= 12);
  Alcotest.(check bool) "diagonal marked" true (Test_util.contains s "/");
  Alcotest.(check bool) "points plotted" true
    (Test_util.contains s "." || Test_util.contains s ":" || Test_util.contains s "*" || Test_util.contains s "#")

let test_scatter_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Scatter.render: no points")
    (fun () -> ignore (H.Scatter.render []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Scatter.render: non-positive coordinate") (fun () ->
      ignore (H.Scatter.render [ (0.0, 1.0) ]))

let prop_skewed_equals_reference =
  QCheck.Test.make ~name:"skewed tiled == reference (random 2D)" ~count:12
    QCheck.(
      quad (int_range 1 6) (int_range 1 3) (int_range 10 24) (int_range 1 6))
    (fun (t_s1, tth, space0, time) ->
      let cfg2 = C.make_exn ~t_t:(2 * tth) ~t_s:[| t_s1; 32 |] ~threads:[| 32 |] in
      let p2 = P.make S.heat2d ~space:[| space0; 32 |] ~time in
      let init = Hextime_stencil.Reference.default_init p2 in
      match Hextime_tiling.Skewed.verify p2 cfg2 ~init with
      | Ok () -> true
      | Error _ -> false)

let prop_overtile_equals_reference =
  QCheck.Test.make ~name:"overtile tiled == reference (random 2D)" ~count:12
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 10 24) (int_range 1 6))
    (fun (t_s1, tth, space0, time) ->
      let cfg2 = C.make_exn ~t_t:(2 * tth) ~t_s:[| t_s1; 32 |] ~threads:[| 32 |] in
      let p2 = P.make S.jacobi2d ~space:[| space0; 32 |] ~time in
      let init = Hextime_stencil.Reference.default_init p2 in
      match Hextime_tiling.Overtile.verify p2 cfg2 ~init with
      | Ok () -> true
      | Error _ -> false)

let prop_redundancy_formula =
  (* closed form vs direct summation *)
  QCheck.Test.make ~name:"redundancy factor >= 1 and monotone in t_t" ~count:50
    QCheck.(triple (int_range 1 2) (int_range 2 32) (int_range 1 8))
    (fun (order, ts, tth) ->
      let t_t = 2 * tth in
      let r tt = Hextime_tiling.Overtile.redundancy_factor ~order ~t_s:[| ts; 32 |] ~t_t:tt in
      r t_t >= 1.0 && r (t_t + 2) > r t_t)

let suite =
  [
    Alcotest.test_case "codegen kernel" `Quick test_codegen_kernel_structure;
    Alcotest.test_case "codegen host" `Quick test_codegen_host_structure;
    Alcotest.test_case "codegen program" `Quick test_codegen_program_both_kernels;
    Alcotest.test_case "codegen nonlinear" `Quick test_codegen_nonlinear_body;
    Alcotest.test_case "codegen rejects" `Quick test_codegen_rejects;
    Alcotest.test_case "codegen 3D" `Quick test_codegen_3d;
    Alcotest.test_case "naive compile" `Quick test_naive_compile;
    Alcotest.test_case "naive validation" `Quick test_naive_validation;
    Alcotest.test_case "naive 3D" `Quick test_naive_3d;
    Alcotest.test_case "naive memory-bound" `Slow test_naive_is_memory_bound;
    Alcotest.test_case "descent quality" `Quick test_descent_finds_good_point;
    Alcotest.test_case "descent variants" `Quick test_descent_verbatim_struggles_more;
    Alcotest.test_case "descent validation" `Quick test_descent_restart_validation;
    Alcotest.test_case "export sweep csv" `Quick test_export_sweep_csv;
    Alcotest.test_case "export scatter csv" `Quick test_export_scatter_csv;
    Alcotest.test_case "export write file" `Quick test_export_write_file;
    Alcotest.test_case "export bad path" `Quick test_export_bad_path;
    Alcotest.test_case "overtile correctness" `Quick test_overtile_correctness;
    Alcotest.test_case "overtile redundancy" `Quick test_overtile_redundancy;
    Alcotest.test_case "overtile launches" `Quick test_overtile_fewer_launches;
    Alcotest.test_case "overtile deep-tile loss" `Quick test_overtile_loses_at_deep_tiles;
    Alcotest.test_case "skewed correctness" `Quick test_skewed_correctness;
    Alcotest.test_case "skewed wavefronts" `Quick test_skewed_wavefront_structure;
    Alcotest.test_case "skewed batching" `Quick test_skewed_kernel_batching;
    Alcotest.test_case "skewed vs hexagonal" `Quick test_skewed_slower_than_hexagonal;
    Alcotest.test_case "autotune budget" `Slow test_autotune_improves_with_budget;
    Alcotest.test_case "autotune deterministic" `Quick test_autotune_deterministic;
    Alcotest.test_case "autotune validation" `Quick test_autotune_validation;
    Alcotest.test_case "campaign estimate" `Slow test_campaign_ci_estimate;
    Alcotest.test_case "campaign validation" `Quick test_campaign_validation;
    Alcotest.test_case "f64 footprints" `Quick test_f64_footprints_double;
    Alcotest.test_case "f64 citer penalty" `Quick test_f64_citer_penalty;
    Alcotest.test_case "f64 model/measurement" `Quick test_f64_model_and_measurement;
    Alcotest.test_case "f64 feasible space" `Quick test_f64_shrinks_feasible_space;
    Alcotest.test_case "f64 id" `Quick test_f64_id_suffix;
    Alcotest.test_case "glossary (Table 1)" `Quick test_glossary_complete;
    Alcotest.test_case "glossary render rows" `Quick test_glossary_render_rows;
    Alcotest.test_case "fig5 full candidate table" `Quick
      test_fig5_full_candidate_table;
    Alcotest.test_case "scatter render" `Quick test_scatter_render;
    Alcotest.test_case "scatter validation" `Quick test_scatter_validation;
    QCheck_alcotest.to_alcotest prop_skewed_equals_reference;
    QCheck_alcotest.to_alcotest prop_overtile_equals_reference;
    QCheck_alcotest.to_alcotest prop_redundancy_formula;
  ]
