module Ints = Hextime_prelude.Ints
module Problem = Hextime_stencil.Problem
module Stencil = Hextime_stencil.Stencil
module Config = Hextime_tiling.Config
module Footprint = Hextime_tiling.Footprint
module Params = Hextime_core.Params
module Model = Hextime_core.Model
module Arith = Hextime_core.Arith
module Metrics = Hextime_obs.Metrics
module II = Arith.Int_interval
module FI = Arith.Float_interval
module ICalc = Model.Calc (Arith.Interval)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let c_boxes_feasible = Metrics.counter "hexabs.boxes_proven_feasible"
let c_boxes_infeasible = Metrics.counter "hexabs.boxes_proven_infeasible"
let c_boxes_split = Metrics.counter "hexabs.boxes_split"
let c_points_proven = Metrics.counter "hexabs.points_proven"
let c_points_enumerated = Metrics.counter "hexabs.points_enumerated"
let c_bound_evals = Metrics.counter "hexabs.bnb.evals_bound"
let c_concrete_evals = Metrics.counter "hexabs.bnb.evals_concrete"
let c_bnb_pruned = Metrics.counter "hexabs.bnb.boxes_pruned"

(* ------------------------------------------------------------------ *)
(* Lattice and boxes                                                  *)
(* ------------------------------------------------------------------ *)

type axis = int array
type lattice = { tt_axis : axis; ts_axes : axis array }
type slice = { lo : int; hi : int }
type box = { b_tt : slice; b_ts : slice array }

let check_axis name (a : axis) =
  if Array.length a = 0 then
    invalid_arg (Printf.sprintf "Hexabs.lattice: empty %s axis" name);
  if a.(0) < 1 then
    invalid_arg (Printf.sprintf "Hexabs.lattice: non-positive %s value" name);
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then
      invalid_arg
        (Printf.sprintf "Hexabs.lattice: %s axis not strictly increasing" name)
  done

let lattice ~tt ~ts =
  check_axis "t_t" tt;
  let rank = Array.length ts in
  if rank < 1 || rank > 3 then invalid_arg "Hexabs.lattice: rank must be 1..3";
  Array.iteri (fun d a -> check_axis (Printf.sprintf "t_s%d" d) a) ts;
  Array.iter
    (fun t ->
      if t mod 2 <> 0 then
        invalid_arg "Hexabs.lattice: t_t candidates must be even")
    tt;
  { tt_axis = Array.copy tt; ts_axes = Array.map Array.copy ts }

let rank l = Array.length l.ts_axes

let full_slice (a : axis) = { lo = 0; hi = Array.length a - 1 }

let full_box l =
  { b_tt = full_slice l.tt_axis; b_ts = Array.map full_slice l.ts_axes }

let slice_points s = s.hi - s.lo + 1

let box_points b =
  Array.fold_left (fun acc s -> acc * slice_points s) (slice_points b.b_tt) b.b_ts

let slice_range (a : axis) s = (a.(s.lo), a.(s.hi))

let value_ranges l b =
  (slice_range l.tt_axis b.b_tt, Array.mapi (fun d s -> slice_range l.ts_axes.(d) s) b.b_ts)

(* split the widest axis (most candidate indices) at its midpoint *)
let split b =
  let widest = ref (-1) and width = ref 1 in
  if slice_points b.b_tt > !width then begin
    widest := -1;
    width := slice_points b.b_tt
  end;
  Array.iteri
    (fun d s ->
      if slice_points s > !width then begin
        widest := d;
        width := slice_points s
      end)
    b.b_ts;
  if !width <= 1 then None
  else
    let halve s =
      let mid = (s.lo + s.hi) / 2 in
      ({ s with hi = mid }, { s with lo = mid + 1 })
    in
    Metrics.incr c_boxes_split;
    if !widest < 0 then
      let a, b' = halve b.b_tt in
      Some ({ b with b_tt = a }, { b with b_tt = b' })
    else
      let a, b' = halve b.b_ts.(!widest) in
      let left = Array.copy b.b_ts and right = Array.copy b.b_ts in
      left.(!widest) <- a;
      right.(!widest) <- b';
      Some ({ b with b_ts = left }, { b with b_ts = right })

type point = { p_tt : int; p_ts : int array }

let members l b =
  let tts = List.init (slice_points b.b_tt) (fun i -> l.tt_axis.(b.b_tt.lo + i)) in
  let dims =
    Array.to_list
      (Array.mapi
         (fun d s ->
           List.init (slice_points s) (fun i -> l.ts_axes.(d).(s.lo + i)))
         b.b_ts)
  in
  let rec product = function
    | [] -> [ [] ]
    | axis :: rest ->
        let tails = product rest in
        List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) axis
  in
  List.concat_map
    (fun p_tt ->
      List.map (fun tl -> { p_tt; p_ts = Array.of_list tl }) (product dims))
    tts

let index_of (a : axis) v =
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then Some mid
      else if a.(mid) < v then go (mid + 1) hi
      else go lo (mid - 1)
  in
  go 0 (Array.length a - 1)

let contains l b ~t_t ~t_s =
  Array.length t_s = rank l
  && (match index_of l.tt_axis t_t with
     | Some i -> b.b_tt.lo <= i && i <= b.b_tt.hi
     | None -> false)
  &&
  let ok = ref true in
  Array.iteri
    (fun d v ->
      match index_of l.ts_axes.(d) v with
      | Some i -> if not (b.b_ts.(d).lo <= i && i <= b.b_ts.(d).hi) then ok := false
      | None -> ok := false)
    t_s;
  !ok

let box_id l b =
  let (tt_lo, tt_hi), ts = value_ranges l b in
  Printf.sprintf "tT[%d..%d]-tS%s" tt_lo tt_hi
    (String.concat "x"
       (Array.to_list (Array.map (fun (lo, hi) -> Printf.sprintf "[%d..%d]" lo hi) ts)))

(* ------------------------------------------------------------------ *)
(* Symbolic feasibility (Model.feasible over a box)                   *)
(* ------------------------------------------------------------------ *)

type verdict = Feasible | Infeasible of string | Mixed of string

let verdict_name = function
  | Feasible -> "feasible"
  | Infeasible _ -> "infeasible"
  | Mixed _ -> "mixed"

let verdict_constraint = function
  | Feasible -> None
  | Infeasible c | Mixed c -> Some c

(* Model.feasible's constraints, decided over the whole box where the
   monotone structure allows.  M_tile = 2 * prod (t_s_d + order t_T + 1) *
   word_factor is strictly increasing in every coordinate, so its range
   over the box is exactly [value at the low corner, value at the high
   corner]; likewise t_s <= space is monotone per axis.  A constraint that
   holds at the worst corner holds everywhere; one violated at the best
   corner is violated everywhere. *)
let feasible_box (p : Params.t) (problem : Problem.t) l b =
  let stencil = problem.Problem.stencil in
  if rank l <> stencil.Stencil.rank then
    Infeasible "configuration rank /= problem rank"
  else begin
    let order = stencil.Stencil.order in
    let word_factor = Problem.word_factor problem in
    let (tt_lo, tt_hi), ts_ranges = value_ranges l b in
    let shared_at pick_t pick_s =
      Footprint.shared_words_of ~word_factor ~order
        ~t_t:(pick_t (tt_lo, tt_hi))
        (Array.map pick_s ts_ranges)
    in
    let cap = p.Params.shared_mem_per_block in
    let smem_min = shared_at fst fst and smem_max = shared_at snd snd in
    let extent_low_violated =
      Array.exists2 (fun (lo, _) s -> lo > s) ts_ranges problem.Problem.space
    in
    let extent_high_violated =
      Array.exists2 (fun (_, hi) s -> hi > s) ts_ranges problem.Problem.space
    in
    if smem_min > cap then Infeasible "shared-memory cap (Equation 19)"
    else if extent_low_violated then Infeasible "tile size exceeds problem extent"
    else if smem_max > cap then Mixed "shared-memory cap (Equation 19)"
    else if extent_high_violated then Mixed "tile size exceeds problem extent"
    else Feasible
  end

(* ------------------------------------------------------------------ *)
(* Interval-lifted model evaluation                                   *)
(* ------------------------------------------------------------------ *)

let interval_inputs l b =
  let (tt_lo, tt_hi), ts_ranges = value_ranges l b in
  (II.v tt_lo tt_hi, Array.map (fun (lo, hi) -> II.v lo hi) ts_ranges)

let model_terms ?variant (p : Params.t) ~citer (problem : Problem.t) l b =
  if citer <= 0.0 then invalid_arg "Hexabs.model_terms: citer must be positive";
  let t_t, t_s = interval_inputs l b in
  Metrics.incr c_bound_evals;
  ICalc.evaluate ?variant p ~citer
    ~order:problem.Problem.stencil.Stencil.order
    ~word_factor:(Problem.word_factor problem) ~space:problem.Problem.space
    ~time:problem.Problem.time ~t_t ~t_s

let talg_bounds ?variant p ~citer problem l b =
  let t = model_terms ?variant p ~citer problem l b in
  (t.ICalc.c_talg.FI.flo, t.ICalc.c_talg.FI.fhi)

(* ------------------------------------------------------------------ *)
(* Feasible-region certificate                                        *)
(* ------------------------------------------------------------------ *)

type region = {
  r_box : box;
  r_verdict : verdict;
  r_points : int;
  r_members : (point * bool) list;
      (* per-point feasibility; non-empty iff the region was enumerated *)
}

type certificate = {
  cert_total_points : int;
  cert_feasible_points : int;
  cert_proven_points : int;
  cert_enumerated_points : int;
  cert_boxes_feasible : int;
  cert_boxes_infeasible : int;
  cert_boxes_enumerated : int;
  cert_splits : int;
  cert_regions : region list;
}

let point_feasible (p : Params.t) (problem : Problem.t) pt =
  match Config.make ~t_t:pt.p_tt ~t_s:pt.p_ts ~threads:[| 128 |] with
  | Error _ -> false
  | Ok cfg -> ( match Model.feasible p problem cfg with Ok () -> true | Error _ -> false)

let prove ?(leaf = 4) (p : Params.t) (problem : Problem.t) l =
  let regions = ref [] and splits = ref 0 in
  let rec go b =
    match feasible_box p problem l b with
    | Feasible as v ->
        Metrics.incr c_boxes_feasible;
        Metrics.incr ~by:(box_points b) c_points_proven;
        regions := { r_box = b; r_verdict = v; r_points = box_points b; r_members = [] } :: !regions
    | Infeasible _ as v ->
        Metrics.incr c_boxes_infeasible;
        Metrics.incr ~by:(box_points b) c_points_proven;
        regions := { r_box = b; r_verdict = v; r_points = box_points b; r_members = [] } :: !regions
    | Mixed _ as v -> (
        if box_points b <= leaf then enumerate b v
        else
          match split b with
          | Some (x, y) ->
              incr splits;
              go x;
              go y
          | None -> enumerate b v)
  and enumerate b v =
    let pts =
      List.map (fun pt -> (pt, point_feasible p problem pt)) (members l b)
    in
    Metrics.incr ~by:(List.length pts) c_points_enumerated;
    regions := { r_box = b; r_verdict = v; r_points = box_points b; r_members = pts } :: !regions
  in
  go (full_box l);
  let regions = List.rev !regions in
  let total = box_points (full_box l) in
  let feasible_points =
    List.fold_left
      (fun acc r ->
        match r.r_verdict with
        | Feasible -> acc + r.r_points
        | Infeasible _ -> acc
        | Mixed _ ->
            acc + List.length (List.filter (fun (_, f) -> f) r.r_members))
      0 regions
  in
  let count pred = List.length (List.filter pred regions) in
  {
    cert_total_points = total;
    cert_feasible_points = feasible_points;
    cert_proven_points =
      List.fold_left
        (fun acc r -> if r.r_members = [] then acc + r.r_points else acc)
        0 regions;
    cert_enumerated_points =
      List.fold_left (fun acc r -> acc + List.length r.r_members) 0 regions;
    cert_boxes_feasible = count (fun r -> r.r_verdict = Feasible);
    cert_boxes_infeasible =
      count (fun r -> match r.r_verdict with Infeasible _ -> true | _ -> false);
    cert_boxes_enumerated = count (fun r -> r.r_members <> []);
    cert_splits = !splits;
    cert_regions = regions;
  }

let certificate_feasible cert l ~t_t ~t_s =
  let covering =
    List.find_opt (fun r -> contains l r.r_box ~t_t ~t_s) cert.cert_regions
  in
  match covering with
  | None -> None
  | Some r -> (
      match r.r_verdict with
      | Feasible -> Some true
      | Infeasible _ -> Some false
      | Mixed _ ->
          List.find_map
            (fun (pt, f) -> if pt.p_tt = t_t && pt.p_ts = t_s then Some f else None)
            r.r_members)

(* ------------------------------------------------------------------ *)
(* Verified branch-and-bound over certified Talg lower bounds         *)
(* ------------------------------------------------------------------ *)

type bnb = {
  bnb_best : point;
  bnb_talg : float;
  bnb_evals_concrete : int;
  bnb_evals_bound : int;
  bnb_boxes_pruned : int;
  bnb_boxes_enumerated : int;
  bnb_live : box list;
}

let point_talg ?variant (p : Params.t) ~citer problem pt =
  match Config.make ~t_t:pt.p_tt ~t_s:pt.p_ts ~threads:[| 128 |] with
  | Error _ -> None
  | Ok cfg -> (
      match Model.predict ?variant p ~citer problem cfg with
      | Ok pr -> Some pr.Model.talg
      | Error _ -> None)

(* representative member for incumbent seeding: the index-midpoint *)
let representative l b =
  let mid s = (s.lo + s.hi) / 2 in
  {
    p_tt = l.tt_axis.(mid b.b_tt);
    p_ts = Array.mapi (fun d s -> l.ts_axes.(d).(mid s)) b.b_ts;
  }

(* Best-first search on the certified lower bounds.  The key property
   making this exact with almost no concrete evaluations: at a singleton
   box every interval collapses and the interval evaluation IS the scalar
   evaluation (both endpoints run the same float primitives), so a
   singleton's lower bound equals its concrete Talg bit for bit.  Popping
   boxes in ascending bound order therefore terminates the moment a
   singleton surfaces at the head: its exact Talg is <= the lower bound of
   every remaining box, hence <= every remaining member's Talg.  The one
   concrete Model.predict call is a cross-check (and produces the
   prediction the caller wants). *)
let minimize ?variant ?(slack = 0.25) (p : Params.t) ~citer
    (problem : Problem.t) l =
  if citer <= 0.0 then Error "citer must be positive"
  else begin
    let evals_concrete = ref 0 and evals_bound = ref 0 in
    let pruned = ref 0 and popped = ref 0 in
    let bound b =
      incr evals_bound;
      fst (talg_bounds ?variant p ~citer problem l b)
    in
    (* worklist kept sorted by certified lower bound: the head is always
       the most promising box *)
    let insert item wl =
      let rec go = function
        | [] -> [ item ]
        | (lb, _) :: _ as rest when fst item < lb -> item :: rest
        | x :: rest -> x :: go rest
      in
      go wl
    in
    let enqueue b wl =
      match feasible_box p problem l b with
      | Infeasible _ ->
          Metrics.incr c_boxes_infeasible;
          incr pruned;
          Metrics.incr c_bnb_pruned;
          wl
      | Feasible | Mixed _ -> insert (bound b, b) wl
    in
    let rec drain = function
      | [] -> Error "no feasible point in the lattice"
      | (lb, b) :: rest ->
          incr popped;
          if box_points b = 1 then begin
            (* exact: lb is this point's Talg and no remaining box can
               beat it.  feasible_box is corner-exact on singletons, so
               the point passed enqueue's feasibility gate. *)
            let pt = representative l b in
            incr evals_concrete;
            Metrics.incr c_concrete_evals;
            match point_talg ?variant p ~citer problem pt with
            | None -> Error "hexabs: singleton argmin rejected by the model"
            | Some talg ->
                if talg <> lb then
                  Error "hexabs: singleton bound differs from Model.predict"
                else
                  let live =
                    b
                    :: List.filter_map
                         (fun (lb, b) ->
                           if lb <= talg *. (1.0 +. slack) then Some b
                           else begin
                             incr pruned;
                             Metrics.incr c_bnb_pruned;
                             None
                           end)
                         rest
                  in
                  Ok
                    {
                      bnb_best = pt;
                      bnb_talg = talg;
                      bnb_evals_concrete = !evals_concrete;
                      bnb_evals_bound = !evals_bound;
                      bnb_boxes_pruned = !pruned;
                      bnb_boxes_enumerated = !popped;
                      bnb_live = live;
                    }
          end
          else
            match split b with
            | None -> assert false (* box_points > 1 always splits *)
            | Some (x, y) -> drain (enqueue x (enqueue y rest))
    in
    drain (enqueue (full_box l) [])
  end
