(** Memory footprints of HHC tiles (Equations 7, 13, 18, 19, 23, 24 of the
    paper), generalised over the stencil order.

    All word counts are in 4-byte words, matching M_SM in {!Hextime_gpu.Arch}.
    For ranks 2 and 3, quantities are per chunk (sub-prism / sub-slab): a
    thread block executes [chunks] of them in sequence. *)

type t = {
  input_words : int;  (** m_i: global->shared words per chunk *)
  output_words : int;  (** m_o: shared->global words per chunk *)
  shared_words : int;  (** M_tile: shared-memory footprint of a block *)
  chunks : int;  (** sub-prisms / sub-slabs per block (1 for 1D) *)
  inner_stride : int;  (** innermost stride of the shared array, in words *)
}

val shared_words_of : ?word_factor:int -> order:int -> t_t:int -> int array -> int
(** [shared_words_of ~order ~t_t t_s] is the shared-memory footprint
    (M_tile, Equation 19) of a tile shape alone — exactly the
    [shared_words] field [of_config] would report, without building a
    {!Config.t} or computing the rest of the footprint.  The tile-space
    enumerator uses it to probe thousands of candidate shapes cheaply. *)

val shared_extent : order:int -> t_t:int -> int -> int
(** [shared_extent ~order ~t_t s] is one dimension's factor of
    {!shared_words_of}: the hexagon's bounding extent [s + order * t_t],
    padded by one word.  [shared_words_of] is [2 * word_factor] times the
    product of these factors, so it can be multiplied in one dimension at
    a time. *)

val of_config :
  ?word_factor:int -> order:int -> space:int array -> Config.t -> t
(** [of_config ~order ~space cfg] computes the footprints for a stencil of
    the given dependence [order] on a problem with the given space extents.
    [word_factor] (default 1) is the 4-byte words per element — 2 for
    double precision, which doubles every word count here.  Raises
    [Invalid_argument] when ranks disagree. *)

val of_problem : Hextime_stencil.Problem.t -> Config.t -> t
(** [of_config] with order, extents and word factor taken from the
    problem. *)

val io_words_per_tile : t -> int
(** m_io aggregated over all chunks of a block (Equation 7 scaled). *)
