(** hexlens: robust changepoint detection over ledger series.

    The judging side of the cross-run regression observatory: every
    {!Series} is scored by robust statistics — median/MAD envelope, EWMA
    of winsorised robust z-scores — and a two-sided Page–Hinkley
    changepoint detector.  All statistics are in z-units of the series'
    own MAD sigma, capped at [winsor_z], so a single wild outlier
    contributes a bounded excursion and only a {e sustained} shift
    (several consecutive deviant points) fires.

    Firing verdicts carry a direction, and the metric's orientation
    (latency down good, throughput up good) decides whether the shift is
    a regression — the only thing [hextime watch --ci] fails on — or an
    improvement, which is reported but never fatal. *)

val code_version : string
(** Detector identity stamped into alert records (["hexlens-v1"]). *)

type spec = {
  min_samples : int;  (** series shorter than this are never judged *)
  winsor_z : float;  (** robust z-score cap (outlier clamp) *)
  ph_delta : float;  (** Page–Hinkley per-point slack, z-units *)
  ph_lambda : float;  (** Page–Hinkley firing threshold *)
  ewma_alpha : float;  (** EWMA smoothing factor *)
  ewma_limit : float;  (** |EWMA z| firing threshold *)
}

val default_spec : spec
(** [{min_samples = 8; winsor_z = 4.0; ph_delta = 0.5; ph_lambda = 10.0;
    ewma_alpha = 0.3; ewma_limit = 3.0}] — tuned so no single fresh
    sample can lift the committed ledger's noisiest clean series
    (excursion ~5.6, one winsorised point adds at most 3.5) over lambda,
    while a 4-record injected step fires well above it. *)

type orientation = Higher_better | Lower_better | Neutral

val orientation_of : string -> orientation
(** Orientation by metric name ([*_per_sec] up-good, [*_us]/RMSE
    down-good, ...).  Unknown metrics are [Neutral]: both directions
    count as regressions. *)

val median : float array -> float
(** NaN on empty. *)

val mad_sigma : float array -> float
(** Median absolute deviation scaled by 1.4826 (sigma-consistent under
    normal noise). *)

val ph_excursion : delta:float -> float array -> float
(** Max Page–Hinkley excursion for an upward mean shift over z-scores;
    run on negated scores for the downward test. *)

val ewma : alpha:float -> float array -> float
(** Exponentially-weighted moving average, seeded at the first value;
    0 on empty. *)

type direction = Up | Down

val direction_to_string : direction -> string

type firing = {
  f_detector : string;  (** ["page_hinkley"] or ["ewma"] *)
  f_direction : direction;
  f_stat : float;  (** the statistic that crossed *)
  f_threshold : float;
  f_regression : bool;  (** bad direction for this metric's orientation *)
}

type verdict = {
  v_kind : string;
  v_group : string;
  v_metric : string;
  v_key : string;  (** {!Series.key} of the judged series *)
  v_n : int;
  v_judged : bool;  (** [n >= min_samples] *)
  v_median : float;
  v_mad_sigma : float;  (** the effective sigma actually used *)
  v_last : float;
  v_ewma_z : float;
  v_ph_up : float;
  v_ph_down : float;
  v_fired : firing option;
}

val judge : ?spec:spec -> Series.t -> verdict

val regression : verdict -> bool
(** Fired in the bad direction. *)

val improvement : verdict -> bool
(** Fired in the good direction. *)

val scan :
  ?spec:spec ->
  ?watch:(string * string list) list ->
  Ledger.entry list ->
  verdict list
(** {!Series.extract} then {!judge} — one verdict per watched series. *)

val to_entry : ?spec:spec -> verdict -> Ledger.entry
(** A provenance-stamped [kind = "alert"] ledger record for a firing
    verdict (labels: series/detector/direction/verdict; metrics: the
    statistics and thresholds).  @raise Invalid_argument if the verdict
    did not fire. *)
