(** hexwatch: the accuracy regression gate.

    The paper's headline claims are accuracy claims (Section 5.3: a large
    RMSE over full sweeps, a small one on the top band, with the paper's
    values printed by {!Report}; Section 6: the predicted arg-min lands
    in that band).  [hextime bench-compare] already
    fails CI when sweep {e throughput} regresses; this module does the same
    for sweep {e accuracy}: a committed [ACCURACY_baseline.json] plus
    [hextime accuracy-compare], so a model or simulator change that quietly
    degrades rmse_top — while every unit test stays green — fails the
    build.

    The simulator is deterministic, so at a fixed code version the
    collected figures are exactly reproducible; the tolerances exist to
    absorb {e intended} model evolution, not noise.  A PR that improves
    the model beyond tolerance regenerates the baseline (and the diff
    shows by how much). *)

type row = {
  experiment : string;  (** {!Experiments.id} *)
  summary : Validation.summary;
}

type t = {
  scale : Experiments.scale;
  code_version : string;  (** {!Sweep.code_version} at collection time *)
  rows : row list;  (** one per experiment, grid order *)
}

val collect :
  ?exec:Hextime_parsweep.Parsweep.exec -> Experiments.scale -> t
(** Run the full baseline sweep of every experiment at [scale] and analyze
    each.  Experiments whose sweep survives no points are dropped. *)

val schema : string
(** The JSON schema tag, ["hextime-accuracy-v1"]. *)

val to_json : t -> Hextime_prelude.Minijson.t
val of_json : Hextime_prelude.Minijson.t -> (t, string) result

val write : path:string -> t -> (unit, string) result
val load : path:string -> (t, string) result

type tolerances = {
  rmse_all : float;  (** max absolute increase allowed (default 0.10) *)
  rmse_top : float;  (** max absolute increase allowed (default 0.02) *)
  correlation_top : float;  (** max absolute decrease allowed (default 0.05) *)
  argmin_quality : float;  (** max absolute decrease allowed (default 0.05) *)
}

val default_tolerances : tolerances

type drift = {
  d_experiment : string;
  d_metric : string;
  d_baseline : float;
  d_current : float;
  d_allowed : string;  (** human rendering of the violated bound *)
}

val compare : ?tol:tolerances -> baseline:t -> t -> drift list
(** Degradations beyond tolerance, in baseline row order.  Only
    regressions drift: a lower RMSE or higher correlation than the
    baseline always passes.  An experiment present in the baseline but
    missing from the current figures is a drift; a baseline arg-min inside
    the top band that falls out of it is a drift regardless of tolerance.
    NaN correlations (fewer than two top-band points) are skipped. *)

val render_table : t -> string
(** The collected figures as a text table (what [accuracy-compare] prints
    before judging). *)

val render_drifts : drift list -> string
