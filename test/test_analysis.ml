(* hexlint: seeded-bug tests and sweep cleanliness.

   Each test takes a kernel the lowering actually produced, plants exactly
   one defect by mutating the IR, and asserts that the pass responsible
   reports it while the other passes stay silent — the lint equivalent of
   mutation testing.  The final tests run the driver over every feasible
   baseline configuration of the CI-scale experiment grid and require zero
   findings: the lowered schedules conform to the model everywhere the
   validation sweep goes. *)

module Ir = Hextime_ir.Ir
module Hexlint = Hextime_analysis.Hexlint
module Arch = Hextime_gpu.Arch
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Lower = Hextime_tiling.Lower
module Hexgeom = Hextime_tiling.Hexgeom
module Model = Hextime_core.Model
module Baseline = Hextime_tileopt.Baseline
module H = Hextime_harness

let get = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let arch = Arch.gtx980
let problem = Problem.make Stencil.heat2d ~space:[| 1024; 1024 |] ~time:128
let config = Config.make_exn ~t_t:8 ~t_s:[| 8; 64 |] ~threads:[| 256 |]
let kernel () = get (Lower.ir_kernel problem config ~family:Hexgeom.Green)
let params = H.Microbench.params arch
let citer = H.Microbench.citer arch Stencil.heat2d

let priced_stride =
  let wl = get (Lower.workload problem config ~family:Hexgeom.Green) in
  wl.Hextime_gpu.Workload.row_stride

(* run the four kernel-level passes and return them labelled *)
let run_passes k =
  [
    ("races", Hexlint.check_races k);
    ("bounds", Hexlint.check_bounds k);
    ("banks", Hexlint.check_banks arch ~priced_stride k);
    ("resources", Hexlint.check_resources arch k);
  ]

let assert_only_pass ~expected ?(severity = Hexlint.Error) k =
  List.iter
    (fun (name, findings) ->
      if name = expected then begin
        Alcotest.(check bool)
          (Printf.sprintf "pass %s reports the planted defect" name)
          true (findings <> []);
        Alcotest.(check bool)
          (Printf.sprintf "pass %s reports the planted severity" name)
          true
          (List.exists (fun f -> f.Hexlint.severity = severity) findings)
      end
      else
        Alcotest.(check (list string))
          (Printf.sprintf "pass %s stays silent" name)
          []
          (List.map (fun f -> f.Hexlint.message) findings))
    (run_passes k)

(* rebuild a kernel with its per-chunk statement list rewritten *)
let with_chunk_body (k : Ir.kernel) f =
  let body =
    match k.Ir.body with
    | [ Ir.Chunk_loop { trips; body } ] ->
        [ Ir.Chunk_loop { trips; body = f body } ]
    | stmts -> f stmts
  in
  { k with Ir.body }

let test_clean_kernel_passes () =
  List.iter
    (fun (name, findings) ->
      Alcotest.(check (list string))
        (Printf.sprintf "pass %s is clean on the lowered kernel" name)
        []
        (List.map (fun f -> f.Hexlint.message) findings))
    (run_passes (kernel ()))

(* --- races ------------------------------------------------------------- *)

let test_seeded_missing_barrier () =
  (* drop the barrier after the first compute row: row 0 writes the pong
     half that row 1 reads, with no sync between the two thread
     partitions any more *)
  let dropped = ref false in
  let mutant =
    with_chunk_body (kernel ())
      (List.filter (fun s ->
           match s with
           | Ir.Sync when not !dropped ->
               dropped := true;
               false
           | _ -> true))
  in
  (* the first barrier is the one after the staged load: load writes the
     ping half that row 0 then reads *)
  assert_only_pass ~expected:"races" mutant

let test_seeded_redundant_barrier () =
  let duplicated = ref false in
  let mutant =
    with_chunk_body (kernel ())
      (List.concat_map (fun s ->
           match s with
           | Ir.Sync when not !duplicated ->
               duplicated := true;
               [ Ir.Sync; Ir.Sync ]
           | s -> [ s ]))
  in
  assert_only_pass ~expected:"races" ~severity:Hexlint.Warning mutant

let test_seeded_same_half_row () =
  let mutant =
    with_chunk_body (kernel ())
      (List.map (fun s ->
           match s with
           | Ir.Compute_row c when c.Ir.row.Ir.r = 0 ->
               Ir.Compute_row { c with Ir.writes = c.Ir.reads }
           | s -> s))
  in
  let findings = Hexlint.check_races mutant in
  Alcotest.(check bool) "intra-row same-half race reported" true
    (List.exists
       (fun f -> Test_util.contains f.Hexlint.message "same buffer half")
       findings)

(* --- bounds ------------------------------------------------------------ *)

let test_seeded_wide_tap () =
  let k = kernel () in
  let rule =
    match k.Ir.rule with
    | Ir.Linear { taps; constant } ->
        let taps =
          match taps with
          | t :: rest ->
              let offset = Array.copy t.Ir.offset in
              offset.(0) <- k.Ir.order + 1;
              { t with Ir.offset } :: rest
          | [] -> []
        in
        Ir.Linear { taps; constant }
    | r -> r
  in
  assert_only_pass ~expected:"bounds" { k with Ir.rule }

let test_seeded_shrunk_window () =
  (* shrink the dim-0 shared extent and keep the allocation consistent
     with the shrunken extents: B2 stays satisfied, the widest row no
     longer fits its halo (B3) *)
  let k = kernel () in
  let smem_ext = Array.copy k.Ir.smem_ext in
  smem_ext.(0) <- smem_ext.(0) - 2;
  let smem_words =
    2 * k.Ir.word_factor * Array.fold_left ( * ) 1 smem_ext
  in
  assert_only_pass ~expected:"bounds" { k with Ir.smem_ext; smem_words }

let test_seeded_inconsistent_allocation () =
  let k = kernel () in
  assert_only_pass ~expected:"bounds"
    { k with Ir.smem_words = k.Ir.smem_words - 1 }

(* --- banks ------------------------------------------------------------- *)

let test_seeded_conflicted_stride () =
  (* stride 32 = the bank count: 32-way serialisation, and it disagrees
     with the stride the simulator priced *)
  let mutant =
    with_chunk_body (kernel ())
      (List.map (fun s ->
           match s with
           | Ir.Compute_row c -> Ir.Compute_row { c with Ir.stride = 32 }
           | s -> s))
  in
  let findings = Hexlint.check_banks arch ~priced_stride mutant in
  Alcotest.(check bool) "stride disagreement is an error" true
    (List.exists
       (fun f ->
         f.Hexlint.severity = Hexlint.Error
         && Test_util.contains f.Hexlint.message "disagrees")
       findings);
  Alcotest.(check bool) "32-way conflict warning" true
    (List.exists
       (fun f ->
         f.Hexlint.severity = Hexlint.Warning
         && Test_util.contains f.Hexlint.message "32-way")
       findings);
  (* the other passes do not look at strides *)
  Alcotest.(check (list string)) "races silent" []
    (List.map (fun f -> f.Hexlint.message) (Hexlint.check_races mutant));
  Alcotest.(check (list string)) "bounds silent" []
    (List.map (fun f -> f.Hexlint.message) (Hexlint.check_bounds mutant))

let test_static_matches_dynamic_pricing () =
  (* the static degree formula must agree with Smem.conflict_factor for
     every stride a tile could plausibly have *)
  List.iter
    (fun stride ->
      let mutant =
        with_chunk_body (kernel ())
          (List.map (fun s ->
               match s with
               | Ir.Compute_row c -> Ir.Compute_row { c with Ir.stride }
               | s -> s))
      in
      let findings = Hexlint.check_banks arch ~priced_stride:stride mutant in
      Alcotest.(check (list string))
        (Printf.sprintf "no cost-model drift at stride %d" stride)
        []
        (List.filter_map
           (fun f ->
             if Test_util.contains f.Hexlint.message "drift" then
               Some f.Hexlint.message
             else None)
           findings))
    (List.init 128 (fun i -> i + 1))

(* --- resources --------------------------------------------------------- *)

let test_seeded_register_explosion () =
  assert_only_pass ~expected:"resources"
    { (kernel ()) with Ir.regs_per_thread = 100_000 }

let test_seeded_partial_warp () =
  assert_only_pass ~expected:"resources" ~severity:Hexlint.Warning
    { (kernel ()) with Ir.threads = 48 }

let test_seeded_oversized_allocation () =
  (* allocation beyond the per-block cap: resources rejects it; keep the
     extents consistent so bounds stays silent *)
  let k = kernel () in
  let smem_ext = Array.copy k.Ir.smem_ext in
  smem_ext.(1) <- smem_ext.(1) * 16;
  let smem_words =
    2 * k.Ir.word_factor * Array.fold_left ( * ) 1 smem_ext
  in
  assert_only_pass ~expected:"resources" { k with Ir.smem_ext; smem_words }

(* --- conformance -------------------------------------------------------- *)

let prediction () = get (Model.predict params ~citer problem config)
let program () = get (Lower.ir_program problem config)

let test_clean_conformance () =
  Alcotest.(check (list string)) "conformance clean on lowered program" []
    (List.map
       (fun f -> f.Hexlint.message)
       (Hexlint.check_conformance (prediction ()) (program ())))

let test_seeded_wrong_transfer () =
  let p = program () in
  let kernels =
    List.map
      (fun (k : Ir.kernel) ->
        if k.Ir.family = Ir.Green then
          with_chunk_body k
            (List.map (fun s ->
                 match s with
                 | Ir.Load_tile { words; run_length; dst } ->
                     Ir.Load_tile { words = words * 2; run_length; dst }
                 | s -> s))
        else k)
      p.Ir.kernels
  in
  let findings =
    Hexlint.check_conformance (prediction ()) { p with Ir.kernels }
  in
  Alcotest.(check bool) "io-word mismatch reported" true
    (List.exists
       (fun f -> Test_util.contains f.Hexlint.message "m_io")
       findings)

let test_seeded_missing_wavefront () =
  let p = program () in
  let host = { p.Ir.host with Ir.bands = p.Ir.host.Ir.bands - 1 } in
  let findings =
    Hexlint.check_conformance (prediction ()) { p with Ir.host }
  in
  Alcotest.(check bool) "missing launch round reported" true
    (List.exists
       (fun f -> Test_util.contains f.Hexlint.message "wavefront")
       findings)

let test_seeded_dropped_sync_breaks_conformance () =
  (* the model charges t_T + 2 barriers per chunk; removing one must be
     caught by the conformance count as well as the race detector *)
  let p = program () in
  let kernels =
    List.map
      (fun (k : Ir.kernel) ->
        if k.Ir.family = Ir.Green then
          let dropped = ref false in
          with_chunk_body k
            (List.filter (fun s ->
                 match s with
                 | Ir.Sync when not !dropped ->
                     dropped := true;
                     false
                 | _ -> true))
        else k)
      p.Ir.kernels
  in
  let findings =
    Hexlint.check_conformance (prediction ()) { p with Ir.kernels }
  in
  Alcotest.(check bool) "barrier count mismatch reported" true
    (List.exists
       (fun f -> Test_util.contains f.Hexlint.message "barriers per chunk")
       findings)

(* --- the driver over the CI-scale sweep --------------------------------- *)

let test_sweep_is_clean () =
  let linted = ref 0 in
  List.iter
    (fun (e : H.Experiments.t) ->
      let params = H.Microbench.params e.arch in
      let citer = H.Microbench.citer e.arch e.problem.Problem.stencil in
      List.iter
        (fun cfg ->
          match Hexlint.lint_config params ~arch:e.arch ~citer e.problem cfg with
          | Error _ -> () (* infeasible for this experiment: not lintable *)
          | Ok r ->
              incr linted;
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s clean" r.Hexlint.problem_id
                   r.Hexlint.config_id)
                []
                (List.map (fun f -> f.Hexlint.message) r.Hexlint.findings))
        (Baseline.data_points params e.problem))
    (H.Experiments.all H.Experiments.Ci);
  Alcotest.(check bool) "swept a non-trivial space" true (!linted > 1000)

let test_sweep_counts_match_model () =
  (* the conformance identity, checked directly: IR per-chunk counts equal
     the prediction's fields on a sample of feasible configurations *)
  List.iter
    (fun (e : H.Experiments.t) ->
      let params = H.Microbench.params e.arch in
      let citer = H.Microbench.citer e.arch e.problem.Problem.stencil in
      let checked = ref 0 in
      List.iter
        (fun cfg ->
          if !checked < 25 then
            match
              ( Model.predict params ~citer e.problem cfg,
                Lower.ir_program e.problem cfg )
            with
            | Ok pr, Ok prog ->
                incr checked;
                List.iter
                  (fun (k : Ir.kernel) ->
                    Alcotest.(check int) "io words" pr.Model.io_words
                      (Ir.io_words_per_chunk k);
                    Alcotest.(check int) "shared words" pr.Model.shared_words
                      k.Ir.smem_words;
                    Alcotest.(check int) "chunks" pr.Model.chunks
                      (Ir.chunk_trips k);
                    Alcotest.(check int) "syncs per chunk" (cfg.Config.t_t + 2)
                      (Ir.syncs_per_chunk k))
                  prog.Ir.kernels
            | _ -> ())
        (Baseline.data_points params e.problem);
      Alcotest.(check bool)
        (Printf.sprintf "checked configurations for %s" (H.Experiments.id e))
        true (!checked > 0))
    (H.Experiments.all H.Experiments.Ci)

let test_render_json_shape () =
  let module J = Hextime_prelude.Minijson in
  let parse reports =
    match J.parse (Hexlint.render_json reports) with
    | Ok (J.List items) -> items
    | Ok _ -> Alcotest.fail "render_json: not a JSON array"
    | Error e -> Alcotest.failf "render_json does not parse: %s" e
  in
  let field name item =
    match J.member name item with
    | Some v -> v
    | None -> Alcotest.failf "render_json: no %S field" name
  in
  let r = get (Hexlint.lint_config params ~arch ~citer problem config) in
  let item =
    match parse [ r ] with
    | [ item ] -> item
    | items -> Alcotest.failf "%d reports rendered, expected 1" (List.length items)
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check bool) name true (field name item = expected))
    [
      ("problem", J.Str "heat2d:1024x1024xT128");
      ("config", J.Str "tT8-tS8x64-thr256");
      ("arch", J.Str "gtx980");
      ("errors", J.Num 0.0);
      ("findings", J.List []);
    ];
  (* a message with a quote, a backslash and a newline comes back intact *)
  let message = "row \"a\\b\"\nnext line" in
  let finding =
    { Hexlint.pass = "bounds"; severity = Hexlint.Error; kernel = "k"; message }
  in
  match parse [ { r with Hexlint.findings = [ finding ] } ] with
  | [ item ] -> (
      Alcotest.(check bool) "errors" true (field "errors" item = J.Num 1.0);
      match field "findings" item with
      | J.List [ f ] ->
          Alcotest.(check bool) "message round-trips" true
            (field "message" f = J.Str message)
      | _ -> Alcotest.fail "expected one rendered finding")
  | _ -> Alcotest.fail "expected one rendered report"

let suite =
  [
    Alcotest.test_case "clean kernel: all passes silent" `Quick
      test_clean_kernel_passes;
    Alcotest.test_case "seeded: dropped barrier -> races" `Quick
      test_seeded_missing_barrier;
    Alcotest.test_case "seeded: duplicated barrier -> races warning" `Quick
      test_seeded_redundant_barrier;
    Alcotest.test_case "seeded: same-half row -> races" `Quick
      test_seeded_same_half_row;
    Alcotest.test_case "seeded: tap beyond halo -> bounds" `Quick
      test_seeded_wide_tap;
    Alcotest.test_case "seeded: shrunken window -> bounds" `Quick
      test_seeded_shrunk_window;
    Alcotest.test_case "seeded: inconsistent allocation -> bounds" `Quick
      test_seeded_inconsistent_allocation;
    Alcotest.test_case "seeded: stride 32 -> banks" `Quick
      test_seeded_conflicted_stride;
    Alcotest.test_case "static bank model agrees with Smem pricing" `Quick
      test_static_matches_dynamic_pricing;
    Alcotest.test_case "seeded: register explosion -> resources" `Quick
      test_seeded_register_explosion;
    Alcotest.test_case "seeded: partial warp -> resources warning" `Quick
      test_seeded_partial_warp;
    Alcotest.test_case "seeded: oversized allocation -> resources" `Quick
      test_seeded_oversized_allocation;
    Alcotest.test_case "conformance clean on lowered program" `Quick
      test_clean_conformance;
    Alcotest.test_case "seeded: doubled load -> conformance" `Quick
      test_seeded_wrong_transfer;
    Alcotest.test_case "seeded: missing wavefront -> conformance" `Quick
      test_seeded_missing_wavefront;
    Alcotest.test_case "seeded: dropped barrier -> conformance count" `Quick
      test_seeded_dropped_sync_breaks_conformance;
    Alcotest.test_case "CI-scale sweep: zero findings" `Quick
      test_sweep_is_clean;
    Alcotest.test_case "CI-scale sweep: IR counts equal the model's" `Quick
      test_sweep_counts_match_model;
    Alcotest.test_case "json rendering" `Quick test_render_json_shape;
  ]
