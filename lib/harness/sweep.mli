(** Running the baseline data-point sweep of one experiment: every
    configuration is both predicted by the model and "measured" on the
    simulator, producing the paired data behind Figure 3 and Section 5.3.

    The sweep runs through {!Hextime_parsweep.Parsweep}: pass [?exec] to
    fan configurations out over worker domains.  Every call recomputes
    every point.  The default is the serial in-process path, and the
    parallel path is bit-identical to it — results are collected in
    configuration order and every worker runs the same deterministic
    code. *)

type point = {
  config : Hextime_tiling.Config.t;
  predicted : Hextime_core.Model.prediction;
  measured : Hextime_tileopt.Runner.measurement;
}

type sweep = {
  points : point list;  (** the surviving points, in baseline order *)
  infeasible_model : int;  (** configurations the model rejected *)
  infeasible_runner : int;
      (** configurations the compiler/device rejected (plus any point lost
          to a worker failure, so a damaged sweep is never silent) *)
}

val code_version : string
(** Provenance tag for sweep-layer results: run-ledger records and the
    accuracy baseline carry it, so a reader can tell which generation of
    the model, lowering, simulator and measurement protocol produced a
    figure.  Nothing is looked up by it. *)

val subsample : int option -> 'a list -> 'a list
(** [subsample (Some n) xs] keeps [n] evenly spaced elements, always
    including the first and the last, preserving order ([xs] itself when it
    has at most [n] elements; raises [Invalid_argument] when [n <= 0]).
    Exposed for the harness tests: dropping the final element here once
    silently truncated the top-performing band. *)

val run :
  ?limit:int ->
  ?exec:Hextime_parsweep.Parsweep.exec ->
  Experiments.t ->
  sweep * Hextime_parsweep.Parsweep.stats
(** Predict and measure the experiment's baseline data points (about 850 at
    full size; [limit] deterministically subsamples for quick runs), and
    report the engine statistics (the point count) alongside.

    The sweep works shape by shape.  The baseline crosses each tile shape
    with ten thread counts, and T_alg has no thread term (Section 7), so
    for each run of consecutive configurations that share (t_T, t_S) a
    serial pass runs {!Hextime_core.Model.predict} and
    {!Hextime_tiling.Lower.shape_half} once, and hashes the architecture's
    name and the shape's label prefix into the noise seed's
    {!Hextime_gpu.Simulator.seed_prefix} once.  The engine then runs one
    task per configuration, which pays only for what its thread count
    changes: {!Hextime_tiling.Lower.thread_half},
    {!Hextime_tileopt.Runner.measure_lowered} (two kernels priced, five
    replays) and the bookkeeping.  A shape the model rejects drops all its
    configurations as model-infeasible; one the lowering rejects, or whose
    preparation raises, drops them as runner-rejected.  The result is the
    one {!Hextime_core.Model.predict} and {!Hextime_tileopt.Runner.measure}
    per configuration would give, bit for bit, and nothing is kept past
    the call. *)

val baseline :
  ?limit:int ->
  ?exec:Hextime_parsweep.Parsweep.exec ->
  Experiments.t ->
  sweep
(** {!run} without the engine statistics. *)

val dropped : sweep -> int
(** Total configurations dropped from the sweep. *)

val pp_drops : Format.formatter -> sweep -> unit
(** e.g. ["117 dropped (32 model-infeasible, 85 runner-rejected)"] — so a
    90%-dropped sweep is never indistinguishable from a clean one. *)

val best_gflops : point list -> float
(** Highest measured throughput in the sweep; raises on empty. *)

val top_performing : within:float -> point list -> point list
(** Points whose measured GFLOP/s is within [within] (e.g. 0.2) of the best
    (the paper's "top performing" subset). *)
