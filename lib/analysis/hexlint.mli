(** hexlint: static-analysis passes over the lowered kernel IR.

    The analytical model ({!Hextime_core.Model}) prices a schedule it never
    sees; {!Hextime_tiling.Lower} emits the schedule the model is supposed
    to be pricing.  hexlint closes that loop: it checks the emitted IR for
    the defects the model assumes away (races, out-of-window accesses,
    bank conflicts, resource overflow) and then verifies that the IR's
    discrete counts are {e exactly} the ones the model charged for
    ({!Hextime_core.Model.scheduled_counts}).

    Each pass is exposed separately so the seeded-bug tests can mutate a
    valid kernel and assert that precisely one pass objects. *)

type severity = Error | Warning

type finding = {
  pass : string;  (** ["races"], ["bounds"], ["banks"], ["resources"],
                      ["conformance"] or ["well-formed"] *)
  severity : severity;
  kernel : string;  (** kernel name, or ["host"] for host-side findings *)
  message : string;
}

val severity_name : severity -> string

(** {1 The passes} *)

val check_races : Hextime_ir.Ir.kernel -> finding list
(** Shared-memory race detector over the double buffer.  Walks the chunk
    body with the chunk loop unrolled twice (to expose back-edge hazards)
    and tracks, per buffer half, every access since the last barrier.
    Two accesses to the same half from different statements — i.e. from
    different partitions of the thread block — with at least one write and
    no intervening [Sync] are a race ([Error]); a [Compute_row] whose read
    and write halves coincide races within itself.  A [Sync] with no
    accesses since the previous barrier is redundant ([Warning]): the
    schedule pays tau_sync for nothing. *)

val check_bounds : Hextime_ir.Ir.kernel -> finding list
(** Bounds checker for the shared-memory window (Equation 19 and its 3D
    analogue): stencil tap offsets within the halo radius, the allocation
    consistent with the declared extents, every row's idealised width plus
    halo inside the dim-0 extent, inner tile extents plus halo inside the
    inner extents, staged transfers no larger than the allocation, and —
    via {!Hextime_tiling.Hexgeom.rows_clipped} — boundary tiles of the
    exact lattice clipped to the iteration domain and never wider than the
    widest row the buffer is sized for (partial tiles shrink, they never
    grow). *)

val check_banks :
  Hextime_gpu.Arch.t ->
  priced_stride:int ->
  Hextime_ir.Ir.kernel ->
  finding list
(** Static bank-conflict analysis, cross-checked against the dynamic
    pricing in {!Hextime_gpu.Smem}.  The conflict degree of a compute
    row's stride is [gcd stride banks]; a degree above 1 is a [Warning]
    (the model deliberately ignores conflicts, Section 7, so this is cost
    the prediction will not see).  Two [Error] cases: the IR's stride
    disagreeing with [priced_stride] (the stride the simulator's workload
    was priced with — the lint and the pricing must look at the same
    schedule), and the static degree disagreeing with
    {!Hextime_gpu.Smem.conflict_factor} (cost-model drift). *)

val check_resources : Hextime_gpu.Arch.t -> Hextime_ir.Ir.kernel -> finding list
(** Resource lint: thread count a warp multiple ([Warning] otherwise —
    partial warps waste lanes) and within the per-block cap, shared
    allocation within the per-block cap, and at least one block resident
    per SM under {!Hextime_gpu.Occupancy.calculate} ([Error] otherwise,
    naming the binding limit).  Moderate register spilling is deliberately
    not a finding — the simulator prices it and legitimate configurations
    spill a little — but demand beyond twice the architectural cap is an
    [Error]: that is a broken lowering estimate, not spilling. *)

val check_conformance :
  Hextime_core.Model.prediction -> Hextime_ir.Ir.program -> finding list
(** Model-conformance pass: the IR must realise exactly the discrete
    counts the model charged for ({!Hextime_core.Model.scheduled_counts}) —
    per-chunk transfer words, shared allocation, chunk-loop trips and
    barriers per chunk for each kernel; launch rounds and blocks per
    launch for the host loop.  When both family kernels are present it
    also machine-checks the family-averaged width convention: for every
    row [r], the green and yellow point counts must sum to twice the
    Refined row width [(t_S1 + order + 2*depth(r)) * inner]. *)

(** {1 Driver} *)

type report = {
  problem_id : string;
  config_id : string;
  arch_name : string;
  findings : finding list;  (** empty iff the configuration is clean *)
}

val lint_config :
  Hextime_core.Params.t ->
  arch:Hextime_gpu.Arch.t ->
  citer:float ->
  Hextime_stencil.Problem.t ->
  Hextime_tiling.Config.t ->
  (report, string) result
(** Lower the configuration, evaluate the model, and run every pass on
    both family kernels plus the host loop.  [Error] only when lowering or
    the model itself fails (infeasible configuration); lint findings are
    reported in the [Ok] case. *)

val error_count : report -> int
val warning_count : report -> int

val render_text : report -> string
(** Human-readable rendering; one line per finding, or a "clean" line. *)

val render_sweep_text : report list -> string
(** Aggregated rendering for sweep mode: identical
    [(pass, severity, kernel, message)] findings across configurations
    collapse to a single line carrying the configuration count and one
    example configuration. *)

val render_json : report list -> string
(** Machine-readable rendering of a batch of reports (hand-rolled JSON:
    the repo deliberately has no JSON dependency). *)
