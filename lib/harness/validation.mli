(** Model validation analysis (Section 5.3 and Figure 3).

    The paper's headline (its numbers are printed beside Figure 3 by
    {!Report}): a large RMSE over a whole sweep, but a small one when
    restricted to the data points whose measured throughput is within 20%
    of the best.  [analyze] computes both, plus the
    predicted/measured correlation of the top band and the Section 6
    selection claim — whether the model's predicted arg-min actually lands
    in that top band. *)

type summary = {
  points : int;
  rmse_all : float;  (** relative RMSE over every data point *)
  top_points : int;
  rmse_top : float;  (** relative RMSE over the top-performing band *)
  correlation_top : float;  (** Pearson r of (predicted, measured), top band *)
  best_gflops : float;
  argmin_quality : float;
      (** measured throughput of the predicted-best configuration as a
          fraction of the sweep's best measured throughput (1.0 = the
          model picked the true winner) *)
  argmin_in_band : bool;
      (** [argmin_quality >= 1 - top_within]: the paper's claim that the
          predicted arg-min lies in the top-performing band *)
}

val analyze : ?top_within:float -> Sweep.point list -> summary
(** [top_within] defaults to 0.2 (the paper's 20% band).  Raises
    [Invalid_argument] on an empty sweep. *)

val argmin_point : Sweep.point list -> Sweep.point
(** The point with the smallest predicted T_alg (the model's selection);
    raises [Invalid_argument] on an empty sweep. *)

val metrics : summary -> (string * float) list
(** The summary as named scalars ([argmin_in_band] as 0/1) — the shape the
    hexwatch ledger, the accuracy baseline and [hextime history] share. *)

val scatter : Sweep.point list -> (float * float) list
(** (predicted, measured) execution-time pairs — Figure 3's coordinates. *)

val pp_summary : Format.formatter -> summary -> unit
