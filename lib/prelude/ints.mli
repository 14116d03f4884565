(** Small integer helpers shared across the code base.

    All divisions here are defined for positive divisors only; each function
    asserts its precondition so misuse fails fast rather than silently
    producing a wrong tile count. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [ceiling (a / b)] for [b > 0] and [a >= 0]. *)

val round_up : int -> int -> int
(** [round_up a m] is the smallest multiple of [m] that is [>= a], [m > 0]. *)

val round_down : int -> int -> int
(** [round_down a m] is the largest multiple of [m] that is [<= a], [m > 0]. *)

val is_multiple : int -> int -> bool
(** [is_multiple a m] is [true] iff [m] divides [a]. *)

val clamp : lo:int -> hi:int -> int -> int
(** [clamp ~lo ~hi x] restricts [x] to the inclusive range [lo, hi]. *)

val pow : int -> int -> int
(** [pow b e] is [b] raised to [e >= 0], without overflow checking. *)

val range : ?step:int -> int -> int -> int list
(** [range ?step lo hi] is [lo; lo+step; ...] up to and including [hi]
    (default [step] 1, which must be positive). *)

val sum_by : ('a -> int) -> 'a list -> int
(** [sum_by f xs] is the sum of [f x] over [xs]. *)

val add_decimal : Buffer.t -> int -> unit
(** [add_decimal buf n] appends the bytes of [string_of_int n] to [buf]
    without building that string — the writer behind the problem and
    configuration ids every priced kernel is labelled with. *)

val add_dims : Buffer.t -> int array -> unit
(** [add_dims buf a] appends [a]'s decimals joined by ['x'], as in
    ["512x512"]. *)
