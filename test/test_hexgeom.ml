(* Hexagonal lattice geometry: closed-form quantities against the paper's
   equations, and exact-coverage properties of the lattice. *)

module H = Hextime_tiling.Hexgeom
module E = Hextime_tiling.Exec_cpu

let test_paper_formulas_order1 () =
  (* Equation 4: wtile = tS + tT - 2 *)
  Alcotest.(check int) "wtile" (24 + 8 - 2) (H.width_of_tile ~order:1 ~t_s:24 ~t_t:8);
  (* Equation 5 pitch: 2 tS + tT *)
  Alcotest.(check int) "pitch" ((2 * 24) + 8) (H.pitch ~order:1 ~t_s:24 ~t_t:8);
  (* Equation 3: Nw = 2 ceil(T/tT) *)
  Alcotest.(check int) "Nw exact" 8 (H.num_wavefronts ~t_t:4 ~time:16);
  Alcotest.(check int) "Nw ragged" 10 (H.num_wavefronts ~t_t:4 ~time:17);
  (* Equation 5: w = ceil(S / pitch) *)
  Alcotest.(check int) "w" 147 (H.wavefront_width ~order:1 ~t_s:24 ~t_t:8 ~space:8192)

let test_row_widths () =
  (* widths are tS, tS+2, ..., wtile each twice (Equation 9's sum) *)
  Alcotest.(check (list int)) "tT=6"
    [ 4; 6; 8; 8; 6; 4 ]
    (H.row_widths ~order:1 ~t_s:4 ~t_t:6);
  Alcotest.(check (list int)) "order 2"
    [ 4; 8; 8; 4 ]
    (H.row_widths ~order:2 ~t_s:4 ~t_t:4);
  Alcotest.(check int) "count is tT" 12
    (List.length (H.row_widths ~order:1 ~t_s:3 ~t_t:12))

let test_rows_shape () =
  let rows = H.rows ~order:1 ~t_s:4 ~t_t:4 { H.family = H.Green; band = 0; index = 0 } in
  Alcotest.(check int) "row count" 4 (List.length rows);
  (* bottom row: time 1, width 4 anchored at 0 *)
  (match rows with
  | (t, lo, hi) :: _ ->
      Alcotest.(check int) "t" 1 t;
      Alcotest.(check int) "lo" 0 lo;
      Alcotest.(check int) "hi" 3 hi
  | [] -> Alcotest.fail "no rows");
  (* widths match row_widths *)
  let widths = List.map (fun (_, lo, hi) -> hi - lo + 1) rows in
  Alcotest.(check (list int)) "widths" (H.row_widths ~order:1 ~t_s:4 ~t_t:4) widths

let test_yellow_offset () =
  let rows = H.rows ~order:1 ~t_s:4 ~t_t:4 { H.family = H.Yellow; band = 1; index = 0 } in
  (match rows with
  | (t, lo, hi) :: _ ->
      (* yellow band 1 starts half a band lower: t = tT - tT/2 + 1 = 3 *)
      Alcotest.(check int) "t" 3 t;
      (* base is 2*order wider than green's *)
      Alcotest.(check int) "base width" 6 (hi - lo + 1)
  | [] -> Alcotest.fail "no rows")

let test_clipping () =
  let tile = { H.family = H.Green; band = 0; index = 0 } in
  let rows = H.rows_clipped ~order:1 ~t_s:4 ~t_t:8 ~space:6 ~time:3 tile in
  List.iter
    (fun (t, lo, hi) ->
      Alcotest.(check bool) "t in domain" true (t >= 1 && t <= 3);
      Alcotest.(check bool) "s in domain" true (lo >= 0 && hi < 6 && lo <= hi))
    rows;
  Alcotest.(check int) "only 3 time levels" 3 (List.length rows)

let test_wavefront_order () =
  (* yellow(a) precedes green(a); tiles within a wavefront share the family *)
  let wfs = H.wavefronts ~order:1 ~t_s:4 ~t_t:4 ~space:40 ~time:12 in
  Alcotest.(check bool) "nonempty" true (List.length wfs > 0);
  List.iter
    (fun wf ->
      match wf with
      | [] -> Alcotest.fail "empty wavefront"
      | first :: rest ->
          List.iter
            (fun (tile : H.tile) ->
              Alcotest.(check bool) "uniform family" true
                (tile.family = first.H.family))
            rest)
    wfs

let test_coverage_exact_cases () =
  List.iter
    (fun (o, ts, tt, sp, tm) ->
      match E.coverage_check ~order:o ~t_s:ts ~t_t:tt ~space:sp ~time:tm with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "coverage o=%d ts=%d tt=%d S=%d T=%d: %s" o ts tt sp
            tm e)
    [
      (1, 3, 4, 40, 10);
      (1, 1, 2, 17, 5);
      (1, 8, 6, 100, 23);
      (2, 5, 4, 60, 9);
      (1, 4, 8, 33, 16);
      (2, 2, 2, 25, 7);
      (1, 32, 2, 64, 3);
      (3, 4, 4, 50, 8);
      (1, 5, 6, 64, 13);
    ]

let prop_coverage =
  QCheck.Test.make ~name:"lattice partitions the iteration domain" ~count:60
    QCheck.(
      quad (int_range 1 2) (int_range 1 9)
        (int_range 1 5 (* tT half *))
        (pair (int_range 5 60) (int_range 1 14)))
    (fun (order, t_s, tth, (space, time)) ->
      let t_t = 2 * tth in
      match E.coverage_check ~order ~t_s ~t_t ~space ~time with
      | Ok () -> true
      | Error _ -> false)

let test_validation_errors () =
  Alcotest.check_raises "odd tT"
    (Invalid_argument "Hexgeom: t_t must be even and >= 2") (fun () ->
      ignore (H.width_of_tile ~order:1 ~t_s:4 ~t_t:3));
  Alcotest.check_raises "bad order"
    (Invalid_argument "Hexgeom: order must be >= 1") (fun () ->
      ignore (H.pitch ~order:0 ~t_s:4 ~t_t:4))

let suite =
  [
    Alcotest.test_case "paper formulas (order 1)" `Quick test_paper_formulas_order1;
    Alcotest.test_case "row widths" `Quick test_row_widths;
    Alcotest.test_case "rows shape" `Quick test_rows_shape;
    Alcotest.test_case "yellow offset" `Quick test_yellow_offset;
    Alcotest.test_case "clipping" `Quick test_clipping;
    Alcotest.test_case "wavefront order" `Quick test_wavefront_order;
    Alcotest.test_case "coverage exact cases" `Quick test_coverage_exact_cases;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    QCheck_alcotest.to_alcotest prop_coverage;
  ]
