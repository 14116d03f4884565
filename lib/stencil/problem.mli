(** A problem instance: which stencil, over which space extents, for how many
    time steps.  These are the "problem parameters" (class P) of Table 1. *)

type precision = F32 | F64
(** Element precision.  The paper's evaluation is single precision (4-byte
    words, the unit of M_SM and M_tile); double precision doubles every
    footprint and, on Maxwell-class machines, pays a large arithmetic
    throughput penalty. *)

type t = private {
  stencil : Stencil.t;
  space : int array;  (** S_1 .. S_k, one extent per space dimension *)
  time : int;  (** T, number of time steps *)
  precision : precision;
}

val make :
  ?precision:precision -> Stencil.t -> space:int array -> time:int -> t
(** [precision] defaults to [F32].  Raises [Invalid_argument] when the
    extents do not match the stencil rank, any extent is too small to
    contain one interior point, or [time < 1]. *)

val word_factor : t -> int
(** 4-byte words per element: 1 for [F32], 2 for [F64]. *)

val points_per_step : t -> int
(** Number of interior (updated) points per time step. *)

val total_updates : t -> int
(** Interior points times time steps. *)

val total_flops : t -> float
(** Floating-point operations for the whole computation, used for GFLOP/s. *)

val id : t -> string
(** A short stable identifier, e.g. ["heat2d:4096x4096xT2048"]. *)

val add_id : Buffer.t -> t -> unit
(** [add_id buf p] appends [id p] to [buf]; every priced kernel's label
    starts with it, so it is written without [Printf]. *)

val pp : Format.formatter -> t -> unit

val mix_pricing :
  Hextime_prelude.Det_hash.t -> t -> Hextime_prelude.Det_hash.t
(** Fold the instance's pricing inputs (stencil structure via
    {!Stencil.mix_pricing}, extents, time steps, precision) into a digest
    state — the problem component of the advisor's request keys. *)

(** {1 The paper's problem-size grids (Section 5)} *)

val paper_sizes_2d : (int array * int) list
(** The 10 (space, T) combinations used for every 2D benchmark: space
    4096^2 and 8192^2, T in 1024, 2048, 4096, 8192, 16384. *)

val paper_sizes_3d : (int array * int) list
(** The 12 (space, T) combinations for 3D benchmarks: space 384^3, 512^3,
    640^3 with T in 128, 256, 384, 512, 640 subject to T <= S (the paper
    explores 12 combinations in total). *)
