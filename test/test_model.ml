(* The analytical model (lib/core): parameter assembly and the T_alg
   equations, checked against hand-evaluated instances of the paper's
   formulas. *)

module Gpu = Hextime_gpu
module Params = Hextime_core.Params
module Model = Hextime_core.Model
module C = Hextime_tiling.Config
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem

(* fixed synthetic constants: keep hand calculations easy *)
let params =
  Params.of_microbenchmarks Gpu.Arch.gtx980 ~l_word:3.0e-11 ~tau_sync:1.0e-9
    ~t_sync:1.0e-6

let citer = 4.0e-8

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected model error: %s" e

let test_params () =
  Alcotest.(check (float 1e-9)) "L per GB" (3.0e-11 *. 1e9 /. 4.0)
    (Params.l_per_gb params);
  Alcotest.(check int) "nSM from arch" 16 params.Params.n_sm;
  Alcotest.check_raises "non-positive constant"
    (Invalid_argument "Params.of_microbenchmarks: non-positive constant")
    (fun () ->
      ignore
        (Params.of_microbenchmarks Gpu.Arch.gtx980 ~l_word:0.0 ~tau_sync:1e-9
           ~t_sync:1e-6))

let test_hyperthreading_factor () =
  (* 48KB block -> 96/48 = 2 *)
  Alcotest.(check int) "k=2 at cap" 2
    (Model.hyperthreading_factor params ~shared_words:12288);
  Alcotest.(check int) "k=6" 6
    (Model.hyperthreading_factor params ~shared_words:4000);
  Alcotest.(check int) "capped by MTBSM" 32
    (Model.hyperthreading_factor params ~shared_words:10)

let test_feasible () =
  let problem = P.make S.heat2d ~space:[| 1024; 1024 |] ~time:128 in
  (match
     Model.feasible params problem
       (C.make_exn ~t_t:8 ~t_s:[| 16; 64 |] ~threads:[| 128 |])
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "feasible rejected: %s" e);
  (* an over-capacity tile: Mtile = 2*(32+33)*(512+33) > 12288 *)
  match
    Model.feasible params problem
      (C.make_exn ~t_t:64 ~t_s:[| 32; 512 |] ~threads:[| 128 |])
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized tile accepted"

(* Hand evaluation of the 1D model, k = 1 path (Equations 3-10), verbatim
   variant.  S = 1000, T = 100, tS = 20, tT = 10 with nV = 128:
     Nw      = 2 * ceil(100/10) = 20
     w       = ceil(1000 / 50) = 20
     mio     = 2 * (20 + 2*10) = 80 words
     m'      = 80 * 3e-11 + 2e-9 = 4.4e-9
     c       = 2 * Citer * sum_{d=0..4} ceil((20 + 2d) / 128) + 10 * tau
             = 2 * 4e-8 * 5 + 1e-8 = 4.1e-7
     Mtile   = 2 * (20 + 10 + 1) = 62 -> k = min(32, 24576/62) = 32,
               clamped by ceil(w / nSM) = ceil(20/16) = 2 -> k = 2
     Ttile   = m' + c + (k-1) max(m', c) = 4.4e-9 + 4.1e-7 + 4.1e-7
     rounds  = ceil(ceil(20/2)/16) = 1
     Talg    = 20 * (Ttile + Tsync) *)
let test_1d_hand_evaluation () =
  let problem = P.make S.jacobi1d ~space:[| 1000 |] ~time:100 in
  let cfg = C.make_exn ~t_t:10 ~t_s:[| 20 |] ~threads:[| 128 |] in
  let pr = ok (Model.predict ~variant:Model.Paper_verbatim params ~citer problem cfg) in
  Alcotest.(check int) "Nw" 20 pr.Model.n_wavefronts;
  Alcotest.(check int) "w" 20 pr.Model.wavefront_blocks;
  Alcotest.(check int) "mio" 80 pr.Model.io_words;
  Alcotest.(check int) "Mtile" 62 pr.Model.shared_words;
  Alcotest.(check int) "k clamped by blocks" 2 pr.Model.k;
  Alcotest.(check (float 1e-15)) "m'" 4.4e-9 pr.Model.m_transfer;
  Alcotest.(check (float 1e-12)) "c" 4.1e-7 pr.Model.c_compute;
  let ttile = 4.4e-9 +. 4.1e-7 +. 4.1e-7 in
  Alcotest.(check (float 1e-12)) "Ttile" ttile pr.Model.t_tile;
  Alcotest.(check int) "rounds" 1 pr.Model.sm_rounds;
  Alcotest.(check (float 1e-10)) "Talg" (20.0 *. (ttile +. 1.0e-6)) pr.Model.talg

(* 2D, k = 1 not reachable with tiny Mtile; force k = 2 with a 48KB tile.
   tS1 = 22, tS2 = 224, tT = 16: Mtile = 2*39*241 = 18798 > 12288 -> infeasible;
   use tS1 = 8, tS2 = 192, tT = 12: Mtile = 2*21*205 = 8610 -> k = 2 (24576/8610).
   chunks = ceil((512 + 12)/192) = 3; mio = 2*192*(8+24) = 12288 words. *)
let test_2d_structure () =
  let problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:48 in
  let cfg = C.make_exn ~t_t:12 ~t_s:[| 8; 192 |] ~threads:[| 256 |] in
  let pr = ok (Model.predict params ~citer problem cfg) in
  Alcotest.(check int) "Mtile" 8610 pr.Model.shared_words;
  Alcotest.(check int) "chunks" 3 pr.Model.chunks;
  Alcotest.(check int) "mio" 12288 pr.Model.io_words;
  Alcotest.(check int) "Nw" 8 pr.Model.n_wavefronts;
  (* w = ceil(512/28) = 19, k = min(2, ceil(19/16)=2) = 2 *)
  Alcotest.(check int) "k" 2 pr.Model.k;
  (* Equation 16, k>1: Ttile = m' + k max(m',c) chunks *)
  let expected =
    pr.Model.m_transfer
    +. (2.0 *. max pr.Model.m_transfer pr.Model.c_compute *. 3.0)
  in
  Alcotest.(check (float 1e-12)) "eq 16" expected pr.Model.t_tile

let test_3d_structure () =
  let problem = P.make S.heat3d ~space:[| 96; 96; 96 |] ~time:32 in
  let cfg = C.make_exn ~t_t:4 ~t_s:[| 4; 8; 32 |] ~threads:[| 128 |] in
  let pr = ok (Model.predict params ~citer problem cfg) in
  (* Equation 23: ceil((100/8) * (100/32)) = ceil(39.06) = 40 *)
  Alcotest.(check int) "sub-slabs" 40 pr.Model.chunks;
  (* Equation 24: mio = 2 * 8 * 32 * (4 + 8) = 6144 *)
  Alcotest.(check int) "mio" 6144 pr.Model.io_words;
  Alcotest.(check bool) "positive talg" true (pr.Model.talg > 0.0)

let test_variant_divergence_degenerate () =
  (* the verbatim widths undercount degenerate tiles by ~2x *)
  let problem = P.make S.jacobi2d ~space:[| 4096; 4096 |] ~time:512 in
  let cfg = C.make_exn ~t_t:2 ~t_s:[| 1; 256 |] ~threads:[| 256 |] in
  let v = ok (Model.predict ~variant:Model.Paper_verbatim params ~citer problem cfg) in
  let r = ok (Model.predict ~variant:Model.Refined params ~citer problem cfg) in
  Alcotest.(check bool) "verbatim undercounts degenerate shapes" true
    (r.Model.c_compute /. v.Model.c_compute > 1.5)

let test_variant_agreement_realistic () =
  (* on realistic tiles the two variants differ by only a few percent *)
  let problem = P.make S.jacobi2d ~space:[| 4096; 4096 |] ~time:512 in
  (* pitch 64 divides S1 and w = 64 fills exactly 2 rounds of k = 2, so the
     two variants' round accounting coincides and only the small width
     correction remains *)
  let cfg = C.make_exn ~t_t:32 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  let v = ok (Model.predict ~variant:Model.Paper_verbatim params ~citer problem cfg) in
  let r = ok (Model.predict ~variant:Model.Refined params ~citer problem cfg) in
  let ratio = r.Model.talg /. v.Model.talg in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f within [0.95, 1.15]" ratio)
    true
    (ratio > 0.95 && ratio < 1.15)

let test_invalid_inputs () =
  let problem = P.make S.heat2d ~space:[| 512; 512 |] ~time:48 in
  let cfg = C.make_exn ~t_t:12 ~t_s:[| 8; 192 |] ~threads:[| 256 |] in
  (match Model.predict params ~citer:(-1.0) problem cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative citer accepted");
  let problem1d = P.make S.jacobi1d ~space:[| 512 |] ~time:48 in
  match Model.predict params ~citer problem1d cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rank mismatch accepted"

let prop_model_ignores_threads =
  (* Section 7: threads-per-block is deliberately absent from the model *)
  QCheck.Test.make ~name:"prediction is thread-count invariant" ~count:60
    QCheck.(
      triple (int_range 1 8) (int_range 1 24) (int_range 0 8))
    (fun (tth, t_s1, thr_idx) ->
      let threads = List.nth [ 32; 64; 96; 128; 192; 256; 384; 512; 1024 ] thr_idx in
      let problem = P.make S.heat2d ~space:[| 2048; 2048 |] ~time:256 in
      let predict threads =
        match
          Model.predict params ~citer problem
            (C.make_exn ~t_t:(2 * tth) ~t_s:[| t_s1; 64 |] ~threads:[| threads |])
        with
        | Ok pr -> Some pr.Model.talg
        | Error _ -> None
      in
      match (predict threads, predict 128) with
      | Some a, Some b -> a = b
      | None, None -> true
      | _ -> false)

let prop_talg_monotone_in_time =
  QCheck.Test.make ~name:"Talg grows with T" ~count:60
    QCheck.(pair (int_range 1 10) (int_range 1 6))
    (fun (tscale, tth) ->
      let t_t = 2 * tth in
      let time = 32 * tscale in
      let talg time =
        let problem = P.make S.heat2d ~space:[| 1024; 1024 |] ~time in
        match
          Model.predict params ~citer problem
            (C.make_exn ~t_t ~t_s:[| 8; 64 |] ~threads:[| 128 |])
        with
        | Ok pr -> pr.Model.talg
        | Error e -> Alcotest.failf "predict: %s" e
      in
      talg time <= talg (2 * time))

let prop_talg_positive =
  QCheck.Test.make ~name:"Talg positive over the feasible space" ~count:100
    QCheck.(
      triple (int_range 1 8 (* tT/2 *)) (int_range 1 24) (int_range 1 6))
    (fun (tth, t_s1, ts2m) ->
      let cfg_r =
        C.make ~t_t:(2 * tth) ~t_s:[| t_s1; 32 * ts2m |] ~threads:[| 128 |]
      in
      match cfg_r with
      | Error _ -> QCheck.assume_fail ()
      | Ok cfg -> (
          let problem = P.make S.jacobi2d ~space:[| 2048; 2048 |] ~time:256 in
          match Model.predict params ~citer problem cfg with
          | Error _ -> true (* infeasible is fine *)
          | Ok pr ->
              pr.Model.talg > 0.0 && pr.Model.k >= 1
              && pr.Model.sm_rounds >= 1))

let test_explain () =
  let problem = P.make S.heat2d ~space:[| 4096; 4096 |] ~time:512 in
  let cfg = C.make_exn ~t_t:16 ~t_s:[| 16; 64 |] ~threads:[| 256 |] in
  match Model.explain params ~citer problem cfg with
  | Error e -> Alcotest.failf "explain: %s" e
  | Ok text ->
      List.iter
        (fun needle ->
          let n = String.length needle and h = String.length text in
          let rec go i =
            i + n <= h && (String.sub text i n = needle || go (i + 1))
          in
          Alcotest.(check bool) (Printf.sprintf "has %S" needle) true (go 0))
        [ "eq 3"; "eq 5"; "eq 11"; "T_alg"; "compute-bound" ]

(* Bit-identity of the Calc(Scalar) refactor: Model.predict routed through
   the arithmetic-signature functor must reproduce the frozen golden
   predictions (test/golden_model.ml, captured before the refactor) with
   every float bit and every discrete count identical. *)
let test_golden_bit_identity () =
  let module H = Hextime_harness in
  let module Baseline = Hextime_tileopt.Baseline in
  let regenerated =
    List.concat_map
      (fun (e : H.Experiments.t) ->
        let params = H.Microbench.params e.arch in
        let citer = H.Microbench.citer e.arch e.problem.P.stencil in
        let arr = Array.of_list (Baseline.data_points params e.problem) in
        let n = Array.length arr in
        let picks = [ 0; n / 3; n / 2; 2 * n / 3; n - 1 ] in
        List.concat_map
          (fun i ->
            let cfg = arr.(i) in
            List.filter_map
              (fun (vn, v) ->
                match Model.predict ~variant:v params ~citer e.problem cfg with
                | Error _ -> None
                | Ok pr ->
                    Some
                      (Printf.sprintf
                         "%s|%s|%s|%.17g|%.17g|%.17g|%.17g|%d|%d|%d|%d|%d|%d|%d"
                         (H.Experiments.id e) (C.id cfg) vn pr.Model.talg
                         pr.Model.t_tile pr.Model.m_transfer
                         pr.Model.c_compute pr.Model.k pr.Model.n_wavefronts
                         pr.Model.wavefront_blocks pr.Model.sm_rounds
                         pr.Model.shared_words pr.Model.io_words
                         pr.Model.chunks))
              [ ("refined", Model.Refined); ("verbatim", Model.Paper_verbatim) ])
          picks)
      (H.Experiments.all H.Experiments.Ci)
  in
  Alcotest.(check int)
    "golden line count"
    (List.length Golden_model.lines)
    (List.length regenerated);
  List.iteri
    (fun i (want, got) ->
      if want <> got then
        Alcotest.failf "golden line %d drifted:\n  want %s\n  got  %s" i want
          got)
    (List.combine Golden_model.lines regenerated)

let suite =
  [
    Alcotest.test_case "params" `Quick test_params;
    Alcotest.test_case "golden predictions bit-identical" `Slow
      test_golden_bit_identity;
    Alcotest.test_case "hyperthreading factor (eq 11)" `Quick test_hyperthreading_factor;
    Alcotest.test_case "feasibility (eq 31)" `Quick test_feasible;
    Alcotest.test_case "1D hand evaluation (eqs 3-12)" `Quick test_1d_hand_evaluation;
    Alcotest.test_case "2D structure (eqs 13-17)" `Quick test_2d_structure;
    Alcotest.test_case "3D structure (eqs 23-30)" `Quick test_3d_structure;
    Alcotest.test_case "variant: degenerate divergence" `Quick test_variant_divergence_degenerate;
    Alcotest.test_case "variant: realistic agreement" `Quick test_variant_agreement_realistic;
    Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
    Alcotest.test_case "explain derivation" `Quick test_explain;
    QCheck_alcotest.to_alcotest prop_model_ignores_threads;
    QCheck_alcotest.to_alcotest prop_talg_monotone_in_time;
    QCheck_alcotest.to_alcotest prop_talg_positive;
  ]
