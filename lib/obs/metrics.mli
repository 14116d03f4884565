(** Process-wide metrics registry: named counters, gauges and log2-bucketed
    histograms.

    Counters are always on — incrementing one is a single lock-free
    [Atomic] add, so hot paths (simulator pricing, memo lookups, eventsim
    fast-forward) register their handles at module-load time and bump them
    unconditionally, from any domain.  The registry only pays for rendering
    when a [snapshot] is taken.

    The registry is domain-safe: counters are [Atomic]-backed and gauge
    sets, histogram observations, registration and snapshots serialise
    through one internal mutex, so the sweep pool's worker domains
    ([Parsweep.Dpool]) share the registry and produce exactly the totals
    the serial path produces.  Snapshots are pure data. *)

type counter
type gauge
type histogram

(** Find-or-create by name.  Handles are interned: two calls with the same
    name return the same live metric. *)
val counter : string -> counter

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
val value : counter -> int
val set : gauge -> float -> unit

(** [observe h v] records [v] into the log2 bucket holding it (bucket edges
    at powers of two from 2^-64 to 2^64; out-of-range and non-finite values
    clamp to the edge buckets). *)
val observe : histogram -> float -> unit

val bucket_of : float -> int
(** Index of the log2 bucket an observation lands in, as in
    {!hist_snapshot}'s [hs_buckets] (edge buckets absorb out-of-range and
    non-finite values). *)

(** {1 Snapshots} *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (int * int) list;  (** (bucket index, count), sparse, sorted *)
}

type snapshot = {
  snap_counters : (string * int) list;   (** sorted by name *)
  snap_gauges : (string * float) list;   (** sorted by name; only set gauges *)
  snap_histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val empty : snapshot
val snapshot : unit -> snapshot

val quantile : hist_snapshot -> float -> float
(** [quantile hs q] estimates the [q]-quantile ([0.0 <= q <= 1.0]) of the
    recorded observations from the log2 buckets: rank-based bucket walk
    with geometric interpolation inside the covering bucket, clamped to
    the exactly-known [hs_min, hs_max].  The relative error is bounded by
    the bucket ratio (2x).  [Float.nan] on an empty histogram or an
    out-of-range [q] — never an infinity leaked from the min/max
    sentinels; Minijson renders it deterministically as ["NaN"], so JSON
    consumers see a stable shape.  [q = 0.0] returns [hs_min] and
    [q = 1.0] returns [hs_max] exactly. *)

val quantiles : (string * float) list
(** The quantiles rendered by {!to_json} and {!render}:
    [("p50", 0.5); ("p90", 0.9); ("p99", 0.99)]. *)

val find_counter : snapshot -> string -> int option
val to_json : snapshot -> Hextime_prelude.Minijson.t

val check_json :
  require:string list ->
  expect:(string * float) list ->
  Hextime_prelude.Minijson.t ->
  (int, string) result
(** [check_json ~require ~expect json] checks a {!to_json} snapshot read
    back from elsewhere (the advisor's [stats] frame): every [require]d
    name is a counter, gauge or histogram; every [(name, v)] in [expect]
    is a gauge holding exactly [v]; every counter is a number [>= 0]; and
    every histogram's bucket counts sum to its [count].  A non-finite
    number arrives as a string (["NaN"], ["Infinity"]) and reads as
    absent: an empty histogram's quantiles and extrema pass, a gauge
    expected to hold a number fails.  [Ok n] counts the metrics in the
    snapshot; [Error] names every broken rule, or says the snapshot is
    not an object. *)

(** Human-readable one-metric-per-line dump (sorted, deterministic). *)
val render : snapshot -> string
