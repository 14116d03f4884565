(** Measured execution of a configuration: compile with the tiling engine,
    run on the GPU simulator with the paper's min-of-five protocol
    (Section 5.1), and report time and throughput. *)

type measurement = {
  time_s : float;  (** minimum over the measurement runs *)
  gflops : float;  (** useful stencil GFLOP/s at that time *)
  resident_blocks : int;
      (** achieved hyper-threading factor of the binding kernel — the
          kernel in the sequence with the fewest resident blocks *)
  spilled_regs : int;  (** per-thread registers spilled, worst kernel *)
  limiting : Hextime_gpu.Occupancy.limit;
      (** the binding kernel's occupancy limit, so the diagnosis always
          matches [resident_blocks] *)
}

val measure :
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Problem.t ->
  Hextime_tiling.Config.t ->
  (measurement, string) result
(** [Error] for configurations the compiler or the device rejects.
    {!Hextime_tiling.Lower.compile} followed by {!measure_lowered}. *)

val measure_lowered :
  ?prefix:Hextime_gpu.Simulator.seed_prefix ->
  Hextime_gpu.Arch.t ->
  Hextime_stencil.Problem.t ->
  Hextime_tiling.Lower.t ->
  (measurement, string) result
(** Price and measure an already lowered program of the problem: each of
    its two kernels is priced once, then replayed for the min-of-five
    protocol.  [Error] when the device rejects a kernel.  The sweep lowers
    a shape's thread-independent half once, hashes its label prefix into
    [prefix] once, and calls this once per configuration; [prefix] changes
    no result (see {!Hextime_gpu.Simulator.price}, which raises
    [Invalid_argument] for a prefix of another shape or architecture). *)

val gflops_of_time : Hextime_stencil.Problem.t -> float -> float
(** Useful throughput for the problem at a given execution time. *)
