(** The model's machine parameters (Table 1).

    The elementary hardware parameters (nSM, nV, M_SM, MTB_SM) come from the
    architecture description (Table 2); the timing constants L, tau_sync and
    T_sync cannot be read off a spec sheet and are measured by
    micro-benchmarks (Section 5.2, Table 3).  [of_microbenchmarks] assembles
    a parameter set from both sources. *)

type t = private {
  arch_name : string;
  n_sm : int;  (** nSM *)
  n_vector : int;  (** nV *)
  shared_mem_per_sm : int;  (** M_SM, words *)
  shared_mem_per_block : int;  (** per-block cap, words *)
  max_blocks_per_sm : int;  (** MTB_SM *)
  l_word : float;  (** L: seconds per 4-byte word of global traffic *)
  tau_sync : float;  (** per-synchronisation cost, seconds *)
  t_sync : float;  (** host-GPU synchronisation / launch cost, seconds *)
}

val of_microbenchmarks :
  Hextime_gpu.Arch.t -> l_word:float -> tau_sync:float -> t_sync:float -> t
(** Validates positivity of the measured constants. *)

val mix_pricing :
  Hextime_prelude.Det_hash.t -> t -> Hextime_prelude.Det_hash.t
(** Fold every field the model computes from — everything but [arch_name]
    — into a digest state; the advisor's request keys are built from this
    (see {!Hextime_gpu.Arch.mix_pricing}). *)

val l_per_gb : t -> float
(** L expressed in seconds per gigabyte, the unit of Table 3. *)

val pp : Format.formatter -> t -> unit
