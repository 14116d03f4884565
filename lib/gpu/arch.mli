(** GPU architecture descriptions.

    These are the elementary hardware (EH) parameters of Table 1, extended
    with the physical quantities the execution simulator needs (clock,
    DRAM bandwidth and latency, issue behaviour).  Table 2 of the paper is
    the restriction of {!gtx980} and {!titanx} to the EH rows.

    Shared-memory quantities are expressed in 4-byte words, matching the
    paper's convention for [M_SM] and [M_tile]. *)

type t = {
  name : string;
  n_sm : int;  (** nSM: number of streaming multiprocessors *)
  n_vector : int;  (** nV: vector units (lanes) per SM *)
  warp_size : int;  (** threads per warp *)
  shared_mem_per_sm : int;  (** M_SM, in words *)
  shared_mem_per_block : int;  (** per-thread-block cap, in words (48 KB) *)
  registers_per_sm : int;  (** R_SM *)
  max_regs_per_thread : int;  (** nvcc hard cap before spilling *)
  max_blocks_per_sm : int;  (** MTB_SM *)
  max_threads_per_sm : int;
  max_threads_per_block : int;
  shared_banks : int;
  clock_ghz : float;  (** SM clock *)
  dram_bandwidth_gbs : float;  (** peak DRAM bandwidth *)
  dram_efficiency : float;  (** achievable fraction of peak for streaming *)
  dram_latency_cycles : int;  (** first-word latency *)
  launch_overhead_s : float;  (** host-side kernel launch / sync (T_sync) *)
  sync_cycles : int;  (** amortised __syncthreads cost (tau_sync) *)
}

val gtx980 : t
(** NVIDIA GTX 980 (Maxwell GM204): 16 SMs, 224 GB/s. *)

val titanx : t
(** NVIDIA GTX Titan X (Maxwell GM200): 24 SMs, 336 GB/s, lower clock. *)

val presets : t list
val find : string -> t
(** Look up a preset by name; raises [Not_found]. *)

val mix_pricing : Hextime_prelude.Det_hash.t -> t -> Hextime_prelude.Det_hash.t
(** Fold every pricing-relevant field — everything except [name] — into a
    digest state.  Two architectures with equal digests price every kernel
    identically, so the advisor's request keys and the calibration memos
    are built from this (a renamed preset keeps its key; a changed clock
    or bandwidth does not). *)

val cycle_s : t -> float
(** Duration of one SM cycle in seconds. *)

val seconds_of_cycles : t -> float -> float

val word_transfer_s : t -> float
(** Streaming cost of one 4-byte word at achievable bandwidth, whole device
    (this is what the L micro-benchmark of Table 3 observes). *)

val pp : Format.formatter -> t -> unit
