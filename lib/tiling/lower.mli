(** Lowering: from (problem, tiling configuration) to the kernel sequence the
    GPU simulator prices.  This plays the role of the HHC compiler's code
    generator (Section 3.2): it fixes the wavefront structure, the per-block
    work (rows, chunks), the global traffic and the resource footprint.

    The program alternates yellow- and green-family kernels (Figure 1); all
    launches of one family have the same shape, so the sequence is returned
    as two kernels with launch counts. *)

type t = private {
  green : Hextime_gpu.Kernel.t;
  yellow : Hextime_gpu.Kernel.t;
  green_launches : int;
  yellow_launches : int;
  footprint : Footprint.t;
  regs_per_thread : int;
  blocks_per_wavefront : int;
}

val compile :
  Hextime_stencil.Problem.t -> Config.t -> (t, string) result
(** Fails when the configuration's rank does not match the problem, or a
    tile exceeds the problem extent.  [compile problem cfg] is
    [thread_half] applied to [shape_half problem cfg]. *)

(** {1 The two halves of [compile]}

    The thread counts of a configuration change only the register
    estimate and the kernels' labels; everything else a lowered program
    holds follows from the problem and the tile shape (t_T, t_S).  A sweep
    crosses every tile shape with ten thread counts (Section 5.1), so it
    lowers the shape half once per shape and the thread half once per
    configuration. *)

type shape
(** The thread-independent half of a lowered program. *)

val shape_half :
  Hextime_stencil.Problem.t -> Config.t -> (shape, string) result
(** Validates the configuration against the problem (failing as
    {!compile} does), then derives what the tile shape fixes: the
    footprint, both families' compute rows and their widest row, the
    per-point body, the global transfers, the wavefront width, the launch
    count and the kernels' label prefix.  The configuration's thread
    counts are ignored. *)

val thread_half : shape -> Config.t -> t
(** The register estimate, both families' workloads and kernels and their
    labels for one thread count.  Raises [Invalid_argument] when the
    configuration's (t_T, t_S) differ from the shape's. *)

val label_prefix : shape -> string
(** [<problem id>/tT..-tS..-thr]: the start of both kernels' labels for
    every thread count of the shape.  A sweep hashes it into the
    simulator's noise seed once per shape
    ({!Hextime_gpu.Simulator.seed_prefix}). *)

val kernel_sequence : t -> (Hextime_gpu.Kernel.t * int) list
(** The launch sequence to hand to {!Hextime_gpu.Simulator.run_sequence}. *)

val workload :
  Hextime_stencil.Problem.t ->
  Config.t ->
  family:Hexgeom.family ->
  (Hextime_gpu.Workload.t, string) result
(** The per-block workload of one family; exposed for tests and reports. *)

val ir_kernel :
  Hextime_stencil.Problem.t ->
  Config.t ->
  family:Hexgeom.family ->
  (Hextime_ir.Ir.kernel, string) result
(** The typed kernel IR of one family's device kernel: staged loads, the
    per-row compute/barrier sequence over the double buffer, the staged
    store, wrapped in the skewed chunk loop when the footprint is chunked.
    This is what {!Codegen} prints and what the hexlint passes analyse. *)

val ir_program :
  Hextime_stencil.Problem.t ->
  Config.t ->
  (Hextime_ir.Ir.program, string) result
(** Both family kernels plus the host wavefront launch loop. *)
