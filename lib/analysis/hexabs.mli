(** hexabs: abstract interpretation over the tile-parameter space.

    Everything upstream of this module reasons about one configuration at
    a time; hexabs reasons about whole {e regions}.  The abstract state is
    a box — a contiguous slice of the sorted candidate axis per coordinate
    (t_T and the tile extents), as exported by
    [Hextime_tileopt.Space.axes].

    Two cooperating analyses:

    - {!feasible_box} decides {!Hextime_core.Model.feasible} over a box.
      M_tile is strictly monotone in every coordinate, so corner
      evaluation is exact: a box is proven [Feasible], proven
      [Infeasible], or [Mixed] with the binding constraint named.
      {!prove} drives this to a disjoint certificate of the whole lattice,
      splitting [Mixed] boxes and enumerating only the leaves the
      monotone boundary actually crosses.
    - {!talg_bounds} evaluates the model's term structure through
      [Model.Calc (Arith.Interval)], giving a certified enclosure of Talg
      over the box; {!minimize} is the branch-and-bound optimizer built on
      the lower bounds — exact (same arg-min value as exhaustive
      enumeration) with a fraction of the concrete evaluations.

    Counters ([hexabs.boxes_proven_*], [hexabs.bnb.evals_*], ...) are
    registered with {!Hextime_obs.Metrics}. *)

(** {1 Lattice and boxes} *)

type axis = int array
(** Sorted, strictly increasing, positive candidate values. *)

type lattice = { tt_axis : axis; ts_axes : axis array }

type slice = { lo : int; hi : int }
(** Inclusive index range into an axis. *)

type box = { b_tt : slice; b_ts : slice array }

val lattice : tt:axis -> ts:axis array -> lattice
(** Validates and copies the axes.  Raises [Invalid_argument] on empty,
    unsorted or non-positive axes, rank outside 1..3, or odd t_t
    candidates. *)

val rank : lattice -> int
val full_box : lattice -> box
val box_points : box -> int

val value_ranges : lattice -> box -> (int * int) * (int * int) array
(** [(t_t range, per-dimension tile-size ranges)], as values. *)

val split : box -> (box * box) option
(** Halve the widest axis at its index midpoint; [None] if the box is a
    single point. *)

type point = { p_tt : int; p_ts : int array }

val members : lattice -> box -> point list
val contains : lattice -> box -> t_t:int -> t_s:int array -> bool
val index_of : axis -> int -> int option
val box_id : lattice -> box -> string

(** {1 Symbolic feasibility} *)

type verdict = Feasible | Infeasible of string | Mixed of string
(** Box-level outcome of {!Hextime_core.Model.feasible}; the payload names
    the binding constraint. *)

val verdict_name : verdict -> string
val verdict_constraint : verdict -> string option

val feasible_box :
  Hextime_core.Params.t -> Hextime_stencil.Problem.t -> lattice -> box ->
  verdict
(** Sound and corner-exact: [Feasible] / [Infeasible] verdicts hold for
    every member configuration; [Mixed] means the feasibility boundary
    crosses the box. *)

(** {1 Interval-lifted model} *)

module ICalc : sig
  type terms = Hextime_core.Model.Calc(Hextime_core.Arith.Interval).terms
end

val model_terms :
  ?variant:Hextime_core.Model.variant ->
  Hextime_core.Params.t ->
  citer:float ->
  Hextime_stencil.Problem.t ->
  lattice ->
  box ->
  Hextime_core.Model.Calc(Hextime_core.Arith.Interval).terms
(** Every model term as a certified enclosure over the box.  Raises
    [Invalid_argument] if [citer <= 0]. *)

val talg_bounds :
  ?variant:Hextime_core.Model.variant ->
  Hextime_core.Params.t ->
  citer:float ->
  Hextime_stencil.Problem.t ->
  lattice ->
  box ->
  float * float
(** [(lo, hi)] with the concrete [Model.predict] Talg of every member
    configuration inside. *)

(** {1 Feasible-region certificate} *)

type region = {
  r_box : box;
  r_verdict : verdict;
  r_points : int;
  r_members : (point * bool) list;
      (** per-point concrete feasibility; non-empty iff the region was a
          [Mixed] leaf the prover had to enumerate *)
}

type certificate = {
  cert_total_points : int;
  cert_feasible_points : int;  (** exact count over the whole lattice *)
  cert_proven_points : int;  (** points covered by proven boxes *)
  cert_enumerated_points : int;  (** points the prover fell back to *)
  cert_boxes_feasible : int;
  cert_boxes_infeasible : int;
  cert_boxes_enumerated : int;
  cert_splits : int;
  cert_regions : region list;  (** disjoint cover of the lattice *)
}

val prove :
  ?leaf:int ->
  Hextime_core.Params.t -> Hextime_stencil.Problem.t -> lattice -> certificate
(** Certify the feasible region: split [Mixed] boxes until proven or at
    most [leaf] points (default 4), then enumerate the stragglers
    concretely.  The certificate agrees with per-point
    [Model.feasible] everywhere — the boundary is a monotone staircase,
    so the enumerated fraction stays small. *)

val certificate_feasible :
  certificate -> lattice -> t_t:int -> t_s:int array -> bool option
(** Feasibility of one lattice point according to the certificate; [None]
    if the point is not on the lattice. *)

val point_feasible :
  Hextime_core.Params.t -> Hextime_stencil.Problem.t -> point -> bool
(** Concrete [Model.feasible] at a lattice point (threads fixed at 128 —
    the model ignores thread counts). *)

(** {1 Branch-and-bound} *)

type bnb = {
  bnb_best : point;
  bnb_talg : float;
  bnb_evals_concrete : int;  (** Model.predict calls spent *)
  bnb_evals_bound : int;  (** interval evaluations spent *)
  bnb_boxes_pruned : int;
  bnb_boxes_enumerated : int;
  bnb_live : box list;
      (** boxes whose certified lower bound is within [slack] of the
          optimum — the restart-seed regions for {!Hextime_tileopt}'s
          descent *)
}

val point_talg :
  ?variant:Hextime_core.Model.variant ->
  Hextime_core.Params.t ->
  citer:float ->
  Hextime_stencil.Problem.t ->
  point ->
  float option

val representative : lattice -> box -> point
(** The index-midpoint member (deterministic). *)

val minimize :
  ?variant:Hextime_core.Model.variant ->
  ?slack:float ->
  Hextime_core.Params.t ->
  citer:float ->
  Hextime_stencil.Problem.t ->
  lattice ->
  (bnb, string) result
(** Best-first branch-and-bound on the certified lower bounds: always pop
    the box with the least bound and split it.  At a singleton box the
    interval evaluation collapses to the scalar one (bit for bit), so the
    first singleton popped {e is} the arg-min — its exact Talg is below
    the certified lower bound of every remaining box.  The single
    concrete [Model.predict] call cross-checks that identity.  The
    returned Talg equals the exhaustive minimum over the feasible
    lattice; [bnb_live] collects the still-unsplit boxes whose bound is
    within [slack] (default 0.25) of the optimum. *)
