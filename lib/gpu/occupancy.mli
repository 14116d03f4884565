(** Thread-block occupancy: how many blocks of a given resource footprint can
    be resident on one SM at once.  This is the simulator's ground truth for
    the paper's hyper-threading factor k (Equation 11), extended with the
    limits the paper's model deliberately omits (thread slots, block slots,
    register file). *)

type request = {
  threads : int;  (** threads per block *)
  shared_words : int;  (** shared memory per block, 4-byte words *)
  regs_per_thread : int;
}

type limit = Threads | Blocks | Shared_memory | Registers

type result = {
  blocks_per_sm : int;  (** 0 when the block cannot run at all *)
  limiting : limit;  (** the binding constraint *)
  regs_spilled_per_thread : int;
      (** registers demanded beyond the per-thread hard cap; the compiler
          would spill these to local (DRAM-backed) memory *)
}

val calculate : Arch.t -> request -> result
(** Raises [Invalid_argument] for non-positive thread counts or negative
    resources.  A few integer divisions and comparisons over the
    architecture's seven limits, recomputed on every call: it keeps no
    table and no state, so concurrent calls from the sweep pool's domains
    need no lock.  Among limits that tie for the least block count, the
    first of [Threads], [Blocks], [Shared_memory], [Registers] is
    [limiting].  Each call bumps the [occupancy.memo_miss] counter. *)

val fits : Arch.t -> request -> bool
(** Whether at least one block can be resident. *)
