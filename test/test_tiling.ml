(* Config validation, footprints (the paper's M_tile / m_i / m_o formulas),
   register estimation, and lowering to GPU workloads. *)

module C = Hextime_tiling.Config
module F = Hextime_tiling.Footprint
module Regalloc = Hextime_tiling.Regalloc
module L = Hextime_tiling.Lower
module Hexgeom = Hextime_tiling.Hexgeom
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module Gpu = Hextime_gpu

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" e

let test_config_constraints () =
  (match C.make ~t_t:3 ~t_s:[| 4; 32 |] ~threads:[| 64 |] with
  | Error msg ->
      Alcotest.(check string) "odd tT" "t_t must be even (hexagonal tiling)" msg
  | Ok _ -> Alcotest.fail "odd t_t accepted");
  (match C.make ~t_t:4 ~t_s:[| 4; 33 |] ~threads:[| 64 |] with
  | Error msg ->
      Alcotest.(check string) "warp multiple"
        "innermost tile size must be a multiple of 32" msg
  | Ok _ -> Alcotest.fail "non-multiple inner accepted");
  (* 1D has no warp-multiple constraint *)
  (match C.make ~t_t:4 ~t_s:[| 5 |] ~threads:[| 64 |] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "1D config rejected: %s" e);
  (match C.make ~t_t:4 ~t_s:[| 0; 32 |] ~threads:[| 64 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero tile accepted")

let test_config_id_threads () =
  let c = C.make_exn ~t_t:8 ~t_s:[| 24; 64 |] ~threads:[| 32; 4 |] in
  Alcotest.(check string) "id" "tT8-tS24x64-thr32x4" (C.id c);
  Alcotest.(check int) "total threads" 128 (C.total_threads c);
  Alcotest.(check int) "rank" 2 (C.rank c)

let test_footprint_1d () =
  (* Equation 7: mi = mo = tS + 2 tT; M_tile = 2 (tS + tT + 1) *)
  let cfg = C.make_exn ~t_t:8 ~t_s:[| 16 |] ~threads:[| 32 |] in
  let fp = F.of_config ~order:1 ~space:[| 1024 |] cfg in
  Alcotest.(check int) "mi" (16 + (2 * 8)) fp.F.input_words;
  Alcotest.(check int) "mo = mi" fp.F.input_words fp.F.output_words;
  Alcotest.(check int) "Mtile" (2 * (16 + 8 + 1)) fp.F.shared_words;
  Alcotest.(check int) "chunks" 1 fp.F.chunks;
  Alcotest.(check int) "mio per tile" (2 * (16 + 16)) (F.io_words_per_tile fp)

let test_footprint_2d () =
  (* Equations 13, 18, 19 *)
  let cfg = C.make_exn ~t_t:8 ~t_s:[| 16; 64 |] ~threads:[| 128 |] in
  let fp = F.of_config ~order:1 ~space:[| 4096; 4096 |] cfg in
  Alcotest.(check int) "mi = tS2 (tS1 + 2 tT)" (64 * (16 + 16)) fp.F.input_words;
  Alcotest.(check int) "Mtile = 2 (tS1+tT+1)(tS2+tT+1)"
    (2 * (16 + 8 + 1) * (64 + 8 + 1))
    fp.F.shared_words;
  (* chunks = ceil((S2 + tT) / tS2) *)
  Alcotest.(check int) "chunks" ((4096 + 8 + 63) / 64) fp.F.chunks;
  Alcotest.(check int) "inner stride padded" (64 + 8 + 1) fp.F.inner_stride

let test_footprint_3d () =
  (* Equations 23, 24 *)
  let cfg = C.make_exn ~t_t:4 ~t_s:[| 4; 8; 32 |] ~threads:[| 128 |] in
  let fp = F.of_config ~order:1 ~space:[| 384; 384; 384 |] cfg in
  Alcotest.(check int) "mi = tS2 tS3 (tS1 + 2 tT)" (8 * 32 * (4 + 8))
    fp.F.input_words;
  (* Equation 23: ceil of the product of ratios *)
  let expected =
    int_of_float
      (ceil (float_of_int (384 + 4) /. 8.0 *. (float_of_int (384 + 4) /. 32.0)))
  in
  Alcotest.(check int) "Nsslabs" expected fp.F.chunks

let test_footprint_order_scaling () =
  let cfg = C.make_exn ~t_t:4 ~t_s:[| 8 |] ~threads:[| 32 |] in
  let o1 = F.of_config ~order:1 ~space:[| 256 |] cfg in
  let o2 = F.of_config ~order:2 ~space:[| 256 |] cfg in
  Alcotest.(check int) "order-1 mi" (8 + 8) o1.F.input_words;
  Alcotest.(check int) "order-2 mi" (8 + 16) o2.F.input_words;
  Alcotest.(check bool) "order grows Mtile" true
    (o2.F.shared_words > o1.F.shared_words)

let test_regalloc_monotone () =
  let r threads =
    Regalloc.per_thread ~stencil_loads:5 ~rank:2 ~max_row_points:2048 ~threads
  in
  Alcotest.(check bool) "fewer threads, more registers" true (r 64 > r 512);
  Alcotest.(check bool) "positive" true (r 1024 > 0);
  let small =
    Regalloc.per_thread ~stencil_loads:5 ~rank:2 ~max_row_points:64
      ~threads:256
  in
  Alcotest.(check bool) "small rows fit comfortably" true (small < 64)

let problem_2d = P.make S.heat2d ~space:[| 512; 512 |] ~time:64
let cfg_2d = C.make_exn ~t_t:8 ~t_s:[| 8; 64 |] ~threads:[| 128 |]

let test_lower_workload_rows () =
  let w = ok (L.workload problem_2d cfg_2d ~family:Hexgeom.Green) in
  (* rows per chunk: tT/2 widths, each twice, times the inner extent *)
  Alcotest.(check int) "row groups" 4 (List.length w.Gpu.Workload.rows);
  Alcotest.(check int) "rows total" 8 (Gpu.Workload.row_count w);
  (match w.Gpu.Workload.rows with
  | first :: _ ->
      Alcotest.(check int) "base row points" (8 * 64) first.Gpu.Workload.points;
      Alcotest.(check int) "pairs" 2 first.Gpu.Workload.repeats
  | [] -> Alcotest.fail "no rows");
  Alcotest.(check int) "threads" 128 w.Gpu.Workload.threads

let test_lower_families_differ () =
  let g = ok (L.workload problem_2d cfg_2d ~family:Hexgeom.Green) in
  let y = ok (L.workload problem_2d cfg_2d ~family:Hexgeom.Yellow) in
  let base rows =
    match rows with
    | (r : Gpu.Workload.row) :: _ -> r.points
    | [] -> 0
  in
  (* yellow base is 2*order wider, scaled by the inner extent *)
  Alcotest.(check int) "yellow wider"
    (base g.Gpu.Workload.rows + (2 * 64))
    (base y.Gpu.Workload.rows)

let test_lower_compile_counts () =
  let c = ok (L.compile problem_2d cfg_2d) in
  (* launches: ceil(T/tT) of each family *)
  Alcotest.(check int) "green launches" 8 c.L.green_launches;
  Alcotest.(check int) "yellow launches" 8 c.L.yellow_launches;
  Alcotest.(check int) "blocks per wavefront"
    (Hexgeom.wavefront_width ~order:1 ~t_s:8 ~t_t:8 ~space:512)
    c.L.blocks_per_wavefront;
  let seq = L.kernel_sequence c in
  Alcotest.(check int) "two kernels" 2 (List.length seq)

let test_lower_rejects () =
  (match L.compile problem_2d (C.make_exn ~t_t:4 ~t_s:[| 4 |] ~threads:[| 32 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rank mismatch accepted");
  match
    L.compile problem_2d (C.make_exn ~t_t:4 ~t_s:[| 600; 32 |] ~threads:[| 32 |])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized tile accepted"

let test_lower_io_matches_footprint () =
  let w = ok (L.workload problem_2d cfg_2d ~family:Hexgeom.Green) in
  let fp = F.of_config ~order:1 ~space:[| 512; 512 |] cfg_2d in
  Alcotest.(check int) "input words" fp.F.input_words
    w.Gpu.Workload.input.Gpu.Memory.words;
  Alcotest.(check int) "chunks" fp.F.chunks w.Gpu.Workload.chunks;
  Alcotest.(check int) "shared" fp.F.shared_words w.Gpu.Workload.shared_words

let prop_footprint_positive =
  QCheck.Test.make ~name:"footprints are positive and monotone in t_t"
    ~count:100
    QCheck.(triple (int_range 1 16) (int_range 1 8) (int_range 1 8))
    (fun (t_s1, tth, ts2m) ->
      let t_t = 2 * tth in
      let t_s2 = 32 * ts2m in
      let mk tt =
        F.of_config ~order:1 ~space:[| 4096; 4096 |]
          (C.make_exn ~t_t:tt ~t_s:[| t_s1; t_s2 |] ~threads:[| 64 |])
      in
      let a = mk t_t and b = mk (t_t + 2) in
      a.F.input_words > 0 && a.F.shared_words > 0
      && b.F.input_words > a.F.input_words
      && b.F.shared_words > a.F.shared_words)

(* The ids every kernel label is built from, formatted through Printf as
   they were before the buffer writers; kept here as the reference. *)
let printf_dims a = String.concat "x" (Array.to_list (Array.map string_of_int a))

let printf_problem_id (p : P.t) =
  Printf.sprintf "%s:%sxT%d%s" p.P.stencil.S.name (printf_dims p.P.space)
    p.P.time
    (match p.P.precision with P.F32 -> "" | P.F64 -> "-f64")

let printf_config_id (c : C.t) =
  Printf.sprintf "tT%d-tS%s-thr%s" c.C.t_t (printf_dims c.C.t_s)
    (printf_dims c.C.threads)

let gen_problem_config =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* stencil =
      oneofl (List.filter (fun s -> s.S.rank = rank) S.all_benchmarks)
    in
    let* precision = oneofl [ P.F32; P.F64 ] in
    let* space = array_repeat rank (int_range ((2 * stencil.S.order) + 1) 100_000) in
    let* time = int_range 1 100_000 in
    let* half_t_t = int_range 1 40 in
    let* t_s = array_repeat rank (int_range 1 600) in
    let* threads = array_size (int_range 1 3) (int_range 1 1024) in
    if rank > 1 then t_s.(rank - 1) <- 32 * t_s.(rank - 1);
    return
      ( P.make ~precision stencil ~space ~time,
        C.make_exn ~t_t:(2 * half_t_t) ~t_s ~threads ))

let prop_ids_match_printf =
  QCheck.Test.make ~name:"ids and kernel labels equal their Printf form"
    ~count:300
    (QCheck.make
       ~print:(fun (p, c) -> printf_problem_id p ^ " " ^ printf_config_id c)
       gen_problem_config)
    (fun (p, c) ->
      let prefix = printf_problem_id p ^ "/" ^ printf_config_id c ^ "/" in
      P.id p = printf_problem_id p
      && C.id c = printf_config_id c
      &&
      match L.compile p c with
      | Error _ -> true
      | Ok k ->
          k.L.green.Gpu.Kernel.label = prefix ^ "green"
          && k.L.yellow.Gpu.Kernel.label = prefix ^ "yellow")

let suite =
  [
    Alcotest.test_case "config constraints" `Quick test_config_constraints;
    Alcotest.test_case "config id/threads" `Quick test_config_id_threads;
    Alcotest.test_case "footprint 1D (eq 7)" `Quick test_footprint_1d;
    Alcotest.test_case "footprint 2D (eqs 13/18/19)" `Quick test_footprint_2d;
    Alcotest.test_case "footprint 3D (eqs 23/24)" `Quick test_footprint_3d;
    Alcotest.test_case "footprint order scaling" `Quick test_footprint_order_scaling;
    Alcotest.test_case "regalloc monotone" `Quick test_regalloc_monotone;
    Alcotest.test_case "lower rows" `Quick test_lower_workload_rows;
    Alcotest.test_case "lower families" `Quick test_lower_families_differ;
    Alcotest.test_case "lower counts" `Quick test_lower_compile_counts;
    Alcotest.test_case "lower rejects" `Quick test_lower_rejects;
    Alcotest.test_case "lower io = footprint" `Quick test_lower_io_matches_footprint;
    QCheck_alcotest.to_alcotest prop_footprint_positive;
    QCheck_alcotest.to_alcotest prop_ids_match_printf;
  ]
