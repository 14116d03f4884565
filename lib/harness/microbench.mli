(** Micro-benchmarks deriving the model's timing constants (Section 5.2).

    The paper measures L, tau_sync, T_sync (Table 3) and the per-stencil
    C_iter (Table 4) on hardware with kernels "implemented such that the
    execution time is dominated by the operation of interest".  We run the
    same protocol against the execution simulator:

    - L from the slope of streaming-kernel time over transfer size;
    - T_sync from the slope of total time over launch count for an
      empty kernel;
    - tau_sync by differencing two compute kernels whose rows need one vs
      two issue rounds (cancelling the per-point cost);
    - C_iter by timing 70 deterministic pseudo-random tile shapes with the
      global traffic removed and dividing by the iteration count, averaged
      (exactly the Section 5.2 recipe, including its contamination by
      thread-count and sync effects — that contamination is part of why the
      measured constant works well for realistic configurations). *)

val measure_l : Hextime_gpu.Arch.t -> float
(** Seconds per 4-byte word of streamed global traffic. *)

val measure_tau_sync : Hextime_gpu.Arch.t -> float
val measure_t_sync : Hextime_gpu.Arch.t -> float

val params : Hextime_gpu.Arch.t -> Hextime_core.Params.t
(** Assembled (and memoized) machine parameters for an architecture. *)

val measure_citer :
  ?precision:Hextime_stencil.Problem.precision ->
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Stencil.t ->
  float
(** Measured C_iter for a stencil on an architecture, recomputed on every
    call; F64 pays Maxwell's double-precision throughput penalty. *)

val citer :
  ?precision:Hextime_stencil.Problem.precision ->
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Stencil.t ->
  float
(** {!measure_citer}, memoized. *)

val memoized :
  ?precision:Hextime_stencil.Problem.precision ->
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Stencil.t ->
  bool
(** Whether both the constants of the architecture and the stencil's
    C_iter on it are in the memos.

    Both memos are keyed by pricing digests (a modified copy of a preset
    keeps the name but gets its own entry) and are domain-safe: reads take
    no lock, and concurrent first calibrations from several domains all
    land. *)

val citer_samples : int
(** Number of random instances averaged for C_iter (70, as in the paper). *)
