(** The execution simulator: prices kernel sequences on an architecture.

    This stands in for the physical GTX 980 / Titan X of the paper's
    evaluation.  It shares the first-order cost structure of the analytical
    model (wavefront kernels -> rounds of resident blocks per SM -> per-chunk
    global traffic + row-by-row compute) but additionally charges for the
    second-order effects the model is deliberately optimistic about:
    occupancy limits, register spills, bank conflicts, warp-granularity,
    latency hiding, DRAM congestion and per-kernel launch overhead, plus a
    deterministic sub-2% timing jitter derived from the workload identity
    (real measurements are noisy; Section 5.1 takes the minimum of five
    runs, and so does our measurement harness).

    The core is the {e priced-kernel representation}: {!price} computes
    everything jitter-invariant about a kernel exactly once (occupancy,
    averaged chunk costs, the round-synchronised body time, the noise
    seed), and every salted run — including the min-of-five measurement
    protocol — is a constant-time reapplication of a jitter factor to the
    priced body.

    The noise seed hashes the architecture's name and then the kernel's
    label.  The labels of one tile shape's configurations share a prefix,
    so a {!seed_prefix} hashes the name and that prefix once and {!price}
    folds only each label's tail; the seed, and so every measured time, is
    the same as when the whole label is hashed.

    Two pricing paths are provided: a closed-form steady-state path whose
    cost is independent of the block count, and an exact list-scheduling
    path used to validate the closed form on small kernels. *)

type kernel_stats = {
  time_s : float;
  blocks : int;
  resident_blocks : int;  (** the achieved hyper-threading factor k *)
  limiting : Occupancy.limit;
  spilled_regs : int;  (** per-thread registers spilled, worst shape *)
  io_s : float;  (** aggregate per-block global-traffic time *)
  compute_s : float;  (** aggregate per-block compute time *)
}

type run_stats = {
  total_s : float;
  kernel_launches : int;
  kernels : kernel_stats list;  (** one entry per distinct kernel *)
}

val invocations : unit -> int
(** Number of kernel pricings performed by this process since start.
    Instrumentation: a sweep must price each kernel of a point exactly
    once (not once per measurement run).  A parallel sweep's worker
    domains count into the same total.  The count also includes the
    pricings [Microbench.params] and [Microbench.citer] make the first
    time a process calibrates an architecture and stencil, so a sweep
    reads 2 per point only once its calibration has run: take the counts
    after calibrating, as hexbench's per-point check does. *)

val block_cost :
  Arch.t -> resident:int -> Workload.t -> spilled_regs:int -> float * float
(** [(io_s, compute_s)] for one chunk of one block when [resident] blocks
    per SM are active. Exposed for tests. *)

(** {1 The noise seed} *)

type seed_prefix
(** The noise seed's hash state after an architecture's name and a label
    prefix. *)

val seed_prefix : Arch.t -> string -> seed_prefix
(** [seed_prefix arch prefix] hashes [arch]'s name and [prefix] once, for
    pricing every kernel of [arch] whose label starts with [prefix].  A
    sweep builds one per tile shape from {!Hextime_tiling.Lower}'s label
    prefix ([<problem id>/tT..-tS..-thr]). *)

(** {1 The priced-kernel representation} *)

type priced = {
  kernel : Kernel.t;
  occ : Occupancy.result;
  avg_io : float;  (** averaged per-chunk transfer seconds *)
  avg_comp : float;  (** averaged per-chunk compute seconds *)
  avg_chunks : float;  (** averaged chunk count *)
  base_s : float;
      (** launch overhead + round-synchronised body: the full
          jitter-invariant execution time *)
  jitter_seed : Hextime_prelude.Det_hash.t;
      (** the noise seed, a hash of (architecture name, kernel label): a
          salted replay only mixes in the salt *)
}

val price :
  ?prefix:seed_prefix -> Arch.t -> Kernel.t -> (priced, string) result
(** Compute everything jitter-invariant about one kernel call, exactly
    once.  [Error] when no block fits on an SM (infeasible configuration).
    Bumps the {!invocations} counter.  With [prefix], the noise seed is
    resumed from it and only the label's tail is hashed; the result is the
    same as without it.  Raises [Invalid_argument] when the kernel's label
    does not start with the prefix, or the prefix was built for an
    architecture of another name. *)

val priced_time : ?jitter:bool -> salt:int -> Arch.t -> priced -> float
(** One salted execution time of a priced kernel: the priced body times a
    deterministic jitter factor.  O(1); performs no pricing. *)

val priced_stats : ?jitter:bool -> salt:int -> Arch.t -> priced -> kernel_stats
(** Full per-kernel stats of one salted execution of a priced kernel.
    O(1); performs no pricing. *)

val attribute_priced :
  ?jitter:bool -> salt:int -> Arch.t -> priced ->
  Hextime_obs.Attribution.components
(** Breakdown of one salted execution of a priced kernel: per round the
    dominant max(io, compute) term is credited to its own side and the
    pipeline-fill term to the smaller side (a round of one block per SM
    runs serially, so both phases count in full), so the component sum equals
    {!priced_time} for the same salt up to float rounding.  [shared_mem]
    and [sync] are zero here — the simulator's cost model folds both into
    compute cycles; the analytical model's attribution splits them out.
    [jitter] is the salted replay's deviation from the priced body and may
    be negative. *)

val price_sequence :
  ?prefix:seed_prefix ->
  Arch.t ->
  (Kernel.t * int) list ->
  ((priced * int) list, string) result
(** Price a program once: each kernel is priced exactly once regardless of
    its launch count or of how many salted runs are later replayed.
    [prefix] is passed to {!price} for every kernel. *)

val replay : ?jitter:bool -> salt:int -> Arch.t -> (priced * int) list -> run_stats
(** One salted run of a priced program.  Performs no pricing. *)

val measure_priced :
  ?runs:int -> Arch.t -> (priced * int) list -> (float, string) result
(** The measurement protocol on an already-priced program: minimum over
    [runs] jitter reapplications, each the total {!replay} reports for its
    salt.  Performs no pricing; bumps the [simulator.replay] counter once
    per salted replay. *)

(** {1 Convenience entry points} *)

val run_kernel :
  ?jitter:bool -> Arch.t -> Kernel.t -> (kernel_stats, string) result
(** Price one kernel call (including launch overhead).  [Error] is returned
    when no block fits on an SM (infeasible configuration).  [jitter]
    defaults to [true]. *)

val run_kernel_salted :
  ?jitter:bool -> salt:int -> Arch.t -> Kernel.t -> (kernel_stats, string) result
(** [run_kernel] with an explicit jitter salt (the measurement run index). *)

val run_kernel_exact :
  ?jitter:bool ->
  Arch.t ->
  Kernel.t ->
  (kernel_stats, string) result
(** Alternative scheduling policy: materialises every block and dispatches
    each to the least-loaded SM as slots free up (pure streaming, no round
    synchronisation).  Occupancy, the averaged stats and the noise seed
    are read off {!price}.  Because real blocks are near-uniform this brackets
    the round-synchronised closed form from below; the tests assert the two
    agree within a round's slack.  Intended for kernels with at most a few
    thousand blocks. *)

val run_sequence :
  ?jitter:bool ->
  Arch.t ->
  (Kernel.t * int) list ->
  (run_stats, string) result
(** Price a program: each kernel is launched [count] times (the wavefronts
    of Equation 2; all launches of one kernel cost the same, so the cost is
    computed once and scaled). *)

val run_sequence_salted :
  ?jitter:bool ->
  salt:int ->
  Arch.t ->
  (Kernel.t * int) list ->
  (run_stats, string) result
(** [run_sequence] with an explicit jitter salt.  Exposed so tests can
    check the priced replay against per-salt pricing from scratch. *)

val measure :
  ?runs:int -> Arch.t -> (Kernel.t * int) list -> (float, string) result
(** The paper's measurement protocol (Section 5.1): execute [runs] times
    (default 5) with run-dependent jitter and report the minimum time.
    Since the priced-kernel refactor this prices each kernel once and
    replays the jitter [runs] times. *)
