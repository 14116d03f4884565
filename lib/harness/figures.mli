(** Reproductions of the paper's evaluation figures.

    Each figure has a [*_data] function returning the raw series (used by
    tests and by anyone re-plotting) and a [render_*] function producing
    the pipe table that {!Report.markdown} prints. *)

(** {1 Figure 3 — observed vs model-predicted time} *)

type fig3_row = {
  experiment : string;
  summary : Validation.summary;
}

val fig3_data : Experiments.scale -> fig3_row list
(** One validation summary per (benchmark, machine): sweeps are merged over
    the scale's problem sizes, exactly as Figure 3 merges sizes per panel.
    The sweeps run serially. *)

val render_fig3 : fig3_row list -> string

(** {1 Figure 4 — T_alg surface for Heat2D on GTX 980, t_s1 = 8} *)

type fig4 = {
  t_s1 : int;
  cells : (int * int * float) list;  (** (t_t, t_s2, T_alg seconds) *)
  minimum : int * int * float;
}

val fig4_data : ?space:int array -> ?time:int -> unit -> fig4
(** Defaults to the paper's 8192^2, T = 8192 instance. *)

val render_fig4 : fig4 -> string

(** {1 Figure 5 — model-guided candidates vs baseline (Gradient2D)} *)

type fig5 = {
  experiment : string;
  baseline_best_s : float;
  candidates : (string * float * float) list;
      (** (shape id, predicted s, measured s) for the within-10% set *)
  best_candidate_s : float;
  improvement_pct : float;
}

val fig5_data : ?scale:Experiments.scale -> unit -> fig5
(** Defaults to the paper's instance (Gradient2D, 8192^2, T = 8192,
    GTX 980) at [Quick]-compatible cost; [scale] only affects the problem
    size used. *)

val render_fig5 : fig5 -> string
(** The full candidate table, then the baseline-vs-model-guided totals. *)

(** {1 Figure 6 — average GFLOP/s per tile-size selection strategy} *)

type fig6_row = {
  stencil : string;
  arch : string;
  per_strategy : (string * float) list;  (** average GFLOP/s over sizes *)
}

val fig6_data : Experiments.scale -> fig6_row list
(** 2D stencils on both machines, averaged over the scale's problem sizes
    (ten sizes at [Paper] scale, as in the figure).  The exhaustive
    strategy is stride-sampled to 2000 configurations. *)

val render_fig6 : fig6_row list -> string
