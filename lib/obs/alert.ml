(* hexlens: robust changepoint detection over ledger series.

   Each series is judged by robust statistics — median/MAD envelope,
   EWMA of winsorised robust z-scores — and a two-sided Page–Hinkley
   changepoint detector.  All the statistics work in z-units of the
   series' own MAD sigma, capped at [winsor_z], so one wild outlier can
   contribute at most a bounded excursion: a detector fires only on a
   *sustained* shift (several consecutive deviant points), which is
   exactly the slow-drift signal the one-shot gates (the hexbench smoke
   floors in CI, accuracy-compare, the hexpulse drift alarm) cannot see.

   Direction matters: every watched metric has an orientation (lower
   latency good, higher throughput good), and only bad-direction
   changepoints are regressions that fire `hextime watch --ci`.
   Good-direction shifts are reported as improvements, never as
   failures. *)

(* Detector identity stamped into alert records: bump when the
   statistics or their defaults change meaning. *)
let code_version = "hexlens-v1"

type spec = {
  min_samples : int;
  winsor_z : float;
  ph_delta : float;
  ph_lambda : float;
  ewma_alpha : float;
  ewma_limit : float;
}

(* Defaults tuned against the committed ledger: its noisiest clean series
   peaks at a Page–Hinkley excursion of ~5.6, and a single winsorised
   point can add at most winsor_z - ph_delta = 3.5 — so lambda 10 cannot
   be crossed by one fresh CI-appended sample however wild, only by a
   sustained shift (the 4-record injected p99 step scores ~14).
   min_samples 8 keeps two-point validate series informational instead
   of judged. *)
let default_spec =
  {
    min_samples = 8;
    winsor_z = 4.0;
    ph_delta = 0.5;
    ph_lambda = 10.0;
    ewma_alpha = 0.3;
    ewma_limit = 3.0;
  }

type orientation = Higher_better | Lower_better | Neutral

(* Orientation by metric name: suffix/name rules covering the watched
   set and the obvious extensions.  Unknown metrics are Neutral — a
   changepoint in either direction is a regression. *)
let orientation_of metric =
  let has_suffix s suf =
    let ls = String.length s and lf = String.length suf in
    ls >= lf && String.sub s (ls - lf) lf = suf
  in
  let lower =
    [ "rmse_top"; "rmse_all"; "rel_err"; "drift_alarm"; "errors"; "elapsed_s" ]
  in
  let higher =
    [
      "correlation_top";
      "argmin_quality";
      "argmin_in_band";
      "in_band";
      "cache_hit_rate";
      "argmin_match";
    ]
  in
  if List.mem metric lower then Lower_better
  else if List.mem metric higher then Higher_better
  else if has_suffix metric "_us" || has_suffix metric "_ns_per_kernel" then
    Lower_better
  else if has_suffix metric "_per_sec" then Higher_better
  else Neutral

(* --- robust statistics ---------------------------------------------------- *)

let median a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2)
    else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  end

(* MAD scaled to be sigma-consistent under normal noise. *)
let mad_sigma a =
  let m = median a in
  1.4826 *. median (Array.map (fun x -> Float.abs (x -. m)) a)

(* A zero MAD (constant majority) would make every deviation infinite;
   fall back to a 5% relative floor so a genuinely flat series scores
   z = 0 everywhere and a flat-then-stepped one still caps at winsor_z. *)
let effective_sigma ~med ~mad =
  if mad > 0.0 then mad else Float.max (0.05 *. Float.abs med) 1e-9

type direction = Up | Down

type firing = {
  f_detector : string;  (* "page_hinkley" | "ewma" *)
  f_direction : direction;
  f_stat : float;  (* the statistic that crossed *)
  f_threshold : float;
  f_regression : bool;  (* bad direction for this metric's orientation *)
}

type verdict = {
  v_kind : string;
  v_group : string;
  v_metric : string;
  v_key : string;
  v_n : int;
  v_judged : bool;  (* n >= min_samples *)
  v_median : float;
  v_mad_sigma : float;
  v_last : float;
  v_ewma_z : float;
  v_ph_up : float;  (* max Page–Hinkley excursion, upward shift *)
  v_ph_down : float;
  v_fired : firing option;
}

let direction_to_string = function Up -> "up" | Down -> "down"

(* Max Page–Hinkley excursion for an upward mean shift over z-scores:
   m_t accumulates (z - delta), the excursion is m_t above its running
   minimum.  The downward test is the same on -z. *)
let ph_excursion ~delta z =
  let m = ref 0.0 and m_min = ref 0.0 and exc = ref 0.0 in
  Array.iter
    (fun zi ->
      m := !m +. zi -. delta;
      if !m -. !m_min > !exc then exc := !m -. !m_min;
      if !m < !m_min then m_min := !m)
    z;
  !exc

let ewma ~alpha z =
  let n = Array.length z in
  if n = 0 then 0.0
  else begin
    let e = ref z.(0) in
    for i = 1 to n - 1 do
      e := (alpha *. z.(i)) +. ((1.0 -. alpha) *. !e)
    done;
    !e
  end

let judge ?(spec = default_spec) (s : Series.t) =
  let xs = Series.values s in
  let n = Array.length xs in
  let med = median xs in
  let mad = mad_sigma xs in
  let sigma = effective_sigma ~med ~mad in
  let winsor z = Float.max (-.spec.winsor_z) (Float.min spec.winsor_z z) in
  let z = Array.map (fun x -> winsor ((x -. med) /. sigma)) xs in
  let ph_up = ph_excursion ~delta:spec.ph_delta z in
  let ph_down = ph_excursion ~delta:spec.ph_delta (Array.map Float.neg z) in
  let ewma_z = ewma ~alpha:spec.ewma_alpha z in
  let judged = n >= spec.min_samples in
  let fired =
    if not judged then None
    else
      let mk detector direction stat threshold =
        let regression =
          match (orientation_of s.Series.s_metric, direction) with
          | Neutral, _ -> true
          | Higher_better, Down | Lower_better, Up -> true
          | Higher_better, Up | Lower_better, Down -> false
        in
        Some
          {
            f_detector = detector;
            f_direction = direction;
            f_stat = stat;
            f_threshold = threshold;
            f_regression = regression;
          }
      in
      if ph_up > spec.ph_lambda || ph_down > spec.ph_lambda then
        if ph_up >= ph_down then mk "page_hinkley" Up ph_up spec.ph_lambda
        else mk "page_hinkley" Down ph_down spec.ph_lambda
      else if Float.abs ewma_z > spec.ewma_limit then
        mk "ewma"
          (if ewma_z > 0.0 then Up else Down)
          (Float.abs ewma_z) spec.ewma_limit
      else None
  in
  {
    v_kind = s.Series.s_kind;
    v_group = s.Series.s_group;
    v_metric = s.Series.s_metric;
    v_key = Series.key s;
    v_n = n;
    v_judged = judged;
    v_median = med;
    v_mad_sigma = sigma;
    v_last = (if n = 0 then Float.nan else xs.(n - 1));
    v_ewma_z = ewma_z;
    v_ph_up = ph_up;
    v_ph_down = ph_down;
    v_fired = fired;
  }

let regression v =
  match v.v_fired with Some f -> f.f_regression | None -> false

let improvement v =
  match v.v_fired with Some f -> not f.f_regression | None -> false

let scan ?spec ?watch entries =
  List.map (fun s -> judge ?spec s) (Series.extract ?watch entries)

(* --- alert records --------------------------------------------------------- *)

(* One provenance-stamped ledger record per firing verdict.  Labels carry
   the identity (series key, detector, direction), metrics the numbers a
   later reader needs to re-judge the firing; Ledger.make stamps time,
   git rev and our detector version. *)
let to_entry ?(spec = default_spec) v =
  match v.v_fired with
  | None -> invalid_arg "Alert.to_entry: verdict did not fire"
  | Some f ->
      Ledger.make ~kind:"alert" ~code_version
        ~labels:
          [
            ("series", v.v_key);
            ("source_kind", v.v_kind);
            ("group", v.v_group);
            ("metric", v.v_metric);
            ("detector", f.f_detector);
            ("direction", direction_to_string f.f_direction);
            ("verdict", (if f.f_regression then "regression" else "improvement"));
          ]
        ~metrics:
          [
            ("firing", 1.0);
            ("regression", if f.f_regression then 1.0 else 0.0);
            ("stat", f.f_stat);
            ("threshold", f.f_threshold);
            ("n", float_of_int v.v_n);
            ("median", v.v_median);
            ("mad_sigma", v.v_mad_sigma);
            ("last", v.v_last);
            ("ewma_z", v.v_ewma_z);
            ("ph_up", v.v_ph_up);
            ("ph_down", v.v_ph_down);
            ("min_samples", float_of_int spec.min_samples);
          ]
        ()
