(** Deterministic hashing for reproducible micro-variation.

    The GPU simulator needs small, repeatable "noise" (e.g. DRAM timing
    jitter) without any runtime randomness: the same (architecture, stencil,
    configuration) triple must always simulate to the same time.  We derive
    such variation from a splitmix64-style integer mix of the inputs. *)

type t
(** A hash state; cheap to copy, never mutated. *)

val create : string -> t
(** [create seed] builds a state from an arbitrary string seed. *)

val mix_int : t -> int -> t
(** Fold an integer into the state. *)

val mix_string : t -> string -> t
(** Fold a string into the state: [finalise (fold_bytes h s ~pos:0)]. *)

val fold_bytes : t -> string -> pos:int -> t
(** [fold_bytes h s ~pos] folds the bytes of [s] from [pos] to its end
    into [h], without {!mix_string}'s finaliser.  The fold is sequential,
    so a common prefix can be folded once and each string's tail after
    it folded later: for [s = p ^ q],
    [fold_bytes (fold_bytes h p ~pos:0) s ~pos:(String.length p)] is
    [fold_bytes h s ~pos:0].  Raises [Invalid_argument] unless
    [0 <= pos <= String.length s]. *)

val finalise : t -> t
(** The finaliser {!mix_string} applies after its byte fold. *)

val mix_float : t -> float -> t
(** Fold a float (by bit pattern) into the state. *)

val to_int64 : t -> int64
(** Extract the 64-bit digest. *)

val uniform : t -> float
(** [uniform h] is a deterministic value in [0, 1) derived from [h]. *)

val jitter : t -> amplitude:float -> float
(** [jitter h ~amplitude] is a deterministic multiplicative factor in
    [1 - amplitude, 1 + amplitude]; amplitude must be in [0, 1). *)
