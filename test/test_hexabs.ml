(* hexabs: soundness of the abstract domains against the concrete model.

   The QCheck properties are the contract of the whole layer: for random
   boxes and random member configurations, every concrete Model result
   must lie inside the interval the abstract evaluation certified, and no
   box-level verdict may contradict a per-point check.  The deterministic
   tests pin the end-to-end guarantees the ISSUE acceptance criteria name:
   exact certificates with a small enumerated fraction, an exact
   branch-and-bound arg-min at a fraction of the concrete evaluations, and
   descent seeding from live boxes that does not change the solution. *)

module Hexabs = Hextime_analysis.Hexabs
module Space = Hextime_tileopt.Space
module Descent = Hextime_tileopt.Descent
module Model = Hextime_core.Model
module Arch = Hextime_gpu.Arch
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module H = Hextime_harness

let arch = Arch.gtx980
let stencil = Stencil.jacobi2d
let problem = Problem.make stencil ~space:[| 512; 512 |] ~time:128
let params = H.Microbench.params arch
let citer = H.Microbench.citer arch stencil

let problem3 = Problem.make Stencil.heat3d ~space:[| 96; 96; 96 |] ~time:32
let citer3 = H.Microbench.citer arch Stencil.heat3d

let lattice_of p =
  let tt, ts = Space.axes p in
  Hexabs.lattice ~tt ~ts

let l2 = lattice_of problem
let l3 = lattice_of problem3

(* --- random boxes and members ------------------------------------------- *)

let slice_gen n st =
  let a = QCheck.Gen.int_range 0 (n - 1) st in
  let b = QCheck.Gen.int_range 0 (n - 1) st in
  { Hexabs.lo = min a b; hi = max a b }

let box_gen l st =
  {
    Hexabs.b_tt = slice_gen (Array.length l.Hexabs.tt_axis) st;
    b_ts =
      Array.map (fun ax -> slice_gen (Array.length ax) st) l.Hexabs.ts_axes;
  }

let member_gen l b st =
  let pick (ax : int array) (s : Hexabs.slice) =
    ax.(QCheck.Gen.int_range s.Hexabs.lo s.Hexabs.hi st)
  in
  {
    Hexabs.p_tt = pick l.Hexabs.tt_axis b.Hexabs.b_tt;
    p_ts = Array.mapi (fun d s -> pick l.Hexabs.ts_axes.(d) s) b.Hexabs.b_ts;
  }

let box_and_member_arb l =
  QCheck.make
    ~print:(fun (b, (pt : Hexabs.point)) ->
      Printf.sprintf "box %s point tT%d-tS%s" (Hexabs.box_id l b)
        pt.Hexabs.p_tt
        (String.concat "x"
           (Array.to_list (Array.map string_of_int pt.Hexabs.p_ts))))
    (fun st ->
      let b = box_gen l st in
      (b, member_gen l b st))

(* --- QCheck properties --------------------------------------------------- *)

let prop_talg_within_bounds l citer problem =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "concrete Talg within interval bounds (%s)"
         (Problem.id problem))
    ~count:120 (box_and_member_arb l)
    (fun (b, pt) ->
      match Hexabs.point_talg params ~citer problem pt with
      | None -> true (* infeasible member: no concrete value to contain *)
      | Some t ->
          let lo, hi = Hexabs.talg_bounds params ~citer problem l b in
          lo <= t && t <= hi)

let prop_feasibility_sound l problem =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "box verdicts never contradict Model.feasible (%s)"
         (Problem.id problem))
    ~count:120 (box_and_member_arb l)
    (fun (b, pt) ->
      let concrete = Hexabs.point_feasible params problem pt in
      match Hexabs.feasible_box params problem l b with
      | Hexabs.Feasible -> concrete
      | Hexabs.Infeasible _ -> not concrete
      | Hexabs.Mixed _ -> true)

(* --- certificate exactness ----------------------------------------------- *)

let check_certificate l problem () =
  let cert = Hexabs.prove params problem l in
  let points = Hexabs.members l (Hexabs.full_box l) in
  Alcotest.(check int)
    "total points" (List.length points) cert.Hexabs.cert_total_points;
  let feas = ref 0 in
  List.iter
    (fun (pt : Hexabs.point) ->
      let concrete = Hexabs.point_feasible params problem pt in
      if concrete then incr feas;
      match
        Hexabs.certificate_feasible cert l ~t_t:pt.Hexabs.p_tt
          ~t_s:pt.Hexabs.p_ts
      with
      | Some c when c = concrete -> ()
      | Some _ ->
          Alcotest.failf "certificate disagrees with Model.feasible at tT%d"
            pt.Hexabs.p_tt
      | None -> Alcotest.fail "lattice point missing from the certificate")
    points;
  Alcotest.(check int)
    "feasible point count" !feas cert.Hexabs.cert_feasible_points;
  (* acceptance criterion: the prover decides >= 75% of the lattice
     symbolically and only enumerates the rest *)
  let frac =
    float_of_int cert.Hexabs.cert_enumerated_points
    /. float_of_int cert.Hexabs.cert_total_points
  in
  Alcotest.(check bool)
    (Printf.sprintf "enumerated fraction %.1f%% <= 25%%" (100.0 *. frac))
    true (frac <= 0.25)

let check_infeasible_boxes_exclude_shapes () =
  let cert = Hexabs.prove params problem l2 in
  let shapes = Space.shapes params problem in
  List.iter
    (fun (r : Hexabs.region) ->
      match r.Hexabs.r_verdict with
      | Hexabs.Infeasible _ ->
          List.iter
            (fun (s : Space.shape) ->
              if
                Hexabs.contains l2 r.Hexabs.r_box ~t_t:s.Space.t_t
                  ~t_s:s.Space.t_s
                && Hexabs.point_feasible params problem
                     { Hexabs.p_tt = s.Space.t_t; p_ts = s.Space.t_s }
              then
                Alcotest.failf
                  "feasible shape %s inside a proven-infeasible box %s"
                  (Space.id s)
                  (Hexabs.box_id l2 r.Hexabs.r_box))
            shapes
      | _ -> ())
    cert.Hexabs.cert_regions

(* --- branch-and-bound ----------------------------------------------------- *)

let exhaustive_min citer problem =
  List.fold_left
    (fun (n, acc) (s : Space.shape) ->
      match
        Hexabs.point_talg params ~citer problem
          { Hexabs.p_tt = s.Space.t_t; p_ts = s.Space.t_s }
      with
      | Some t -> (n + 1, min acc t)
      | None -> (n, acc))
    (0, infinity)
    (Space.shapes params problem)

let check_bnb_exact_and_cheap l citer problem () =
  let evals, ex_min = exhaustive_min citer problem in
  match Hexabs.minimize params ~citer problem l with
  | Error msg -> Alcotest.failf "minimize failed: %s" msg
  | Ok r ->
      (* bit-exact: the singleton interval evaluation IS the scalar one *)
      Alcotest.(check (float 0.0))
        "arg-min Talg equals the exhaustive minimum" ex_min
        r.Hexabs.bnb_talg;
      Alcotest.(check bool)
        (Printf.sprintf "concrete evals %d at least 10x below exhaustive %d"
           r.Hexabs.bnb_evals_concrete evals)
        true
        (r.Hexabs.bnb_evals_concrete * 10 <= evals);
      Alcotest.(check bool)
        "live seed boxes reported" true
        (r.Hexabs.bnb_live <> []);
      (* the best point is inside some live box *)
      let pt = r.Hexabs.bnb_best in
      Alcotest.(check bool)
        "arg-min covered by a live box" true
        (List.exists
           (fun b ->
             Hexabs.contains l b ~t_t:pt.Hexabs.p_tt ~t_s:pt.Hexabs.p_ts)
           r.Hexabs.bnb_live)

(* --- descent seeding ------------------------------------------------------ *)

let check_descent_solution_unchanged citer problem () =
  let get = function
    | Ok v -> v
    | Error msg -> Alcotest.failf "solve failed: %s" msg
  in
  let uniform =
    get (Descent.solve ~seed_mode:`Uniform params ~citer problem)
  in
  let symbolic =
    get (Descent.solve ~seed_mode:`Symbolic params ~citer problem)
  in
  Alcotest.(check (float 0.0))
    "symbolic seeding returns the same solution Talg" uniform.Descent.talg
    symbolic.Descent.talg;
  (* seeded with the certified arg-min, descent can never end above it *)
  let _, ex_min = exhaustive_min citer problem in
  Alcotest.(check (float 0.0))
    "symbolic-seeded descent reaches the exhaustive minimum" ex_min
    symbolic.Descent.talg

(* --- metrics -------------------------------------------------------------- *)

let check_metrics_counters () =
  let module Metrics = Hextime_obs.Metrics in
  let value name = Metrics.value (Metrics.counter name) in
  let names =
    [
      "hexabs.boxes_proven_feasible";
      "hexabs.boxes_proven_infeasible";
      "hexabs.boxes_split";
      "hexabs.bnb.evals_bound";
      "hexabs.bnb.evals_concrete";
      "hexabs.bnb.boxes_pruned";
    ]
  in
  let before = List.map value names in
  ignore (Hexabs.prove params problem l2);
  (match Hexabs.minimize params ~citer problem l2 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "minimize failed: %s" msg);
  List.iter2
    (fun name b ->
      Alcotest.(check bool)
        (Printf.sprintf "counter %s advanced" name)
        true
        (value name > b))
    names before

let suite =
  [
    QCheck_alcotest.to_alcotest (prop_talg_within_bounds l2 citer problem);
    QCheck_alcotest.to_alcotest (prop_talg_within_bounds l3 citer3 problem3);
    QCheck_alcotest.to_alcotest (prop_feasibility_sound l2 problem);
    QCheck_alcotest.to_alcotest (prop_feasibility_sound l3 problem3);
    Alcotest.test_case "certificate exact, small enumeration (2D)" `Slow
      (check_certificate l2 problem);
    Alcotest.test_case "certificate exact, small enumeration (3D)" `Slow
      (check_certificate l3 problem3);
    Alcotest.test_case "no feasible shape in an infeasible box" `Slow
      check_infeasible_boxes_exclude_shapes;
    Alcotest.test_case "branch-and-bound exact with >=10x fewer evals (2D)"
      `Slow
      (check_bnb_exact_and_cheap l2 citer problem);
    Alcotest.test_case "branch-and-bound exact with >=10x fewer evals (3D)"
      `Slow
      (check_bnb_exact_and_cheap l3 citer3 problem3);
    Alcotest.test_case "descent solution unchanged under symbolic seeding"
      `Slow
      (check_descent_solution_unchanged citer problem);
    Alcotest.test_case "hexabs metrics counters advance" `Quick
      check_metrics_counters;
  ]
