(** A tiling configuration: the compiler parameters of the HHC compiler that
    the paper's model predicts over and the optimizer selects.

    [t_t] is the time tile size, [t_s.(i)] the tile size along space
    dimension [i] ([t_s.(0)] is the hexagonally tiled dimension, the rest are
    time-skewed), and [threads] the threads-per-block counts per dimension
    (their product is the block's thread count). *)

type t = private { t_t : int; t_s : int array; threads : int array }

val make : t_t:int -> t_s:int array -> threads:int array -> (t, string) result
(** Validates the structural constraints of Section 6.1:
    - [t_t] even and positive (required by hybrid-hexagonal tiling);
    - every tile size positive;
    - the innermost space tile size a multiple of 32 when there is an inner
      dimension (full-warp coalescing; for 1D stencils there is no such
      constraint);
    - at least one thread, and thread counts positive. *)

val make_exn : t_t:int -> t_s:int array -> threads:int array -> t
(** Like {!make} but raises [Invalid_argument]. *)

val rank : t -> int
val total_threads : t -> int

val id : t -> string
(** Stable identifier, e.g. ["tT8-tS24x64-thr128"]. *)

val add_id : Buffer.t -> t -> unit
(** [add_id buf c] appends [id c] to [buf]; every priced kernel's label
    carries it, so it is written without [Printf]. *)

val add_id_prefix : Buffer.t -> t -> unit
(** [add_id_prefix buf c] appends the part of [id c] before the thread
    counts (e.g. ["tT8-tS24x64-thr"]), which every thread count of one
    tile shape shares; [add_id] is it followed by the thread counts. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int

val same_shape : t -> t -> bool
(** Equal tile sizes ([t_t] and [t_s]), whatever the thread counts. *)
