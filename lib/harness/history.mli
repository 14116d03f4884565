(** hexwatch: trend rendering over the run ledger.

    [hextime history] and the report's trend section both come through
    here: given ledger entries (see {!Hextime_obs.Ledger}), build a
    one-row-per-run table of the metrics that matter over time —
    accuracy (rmse_top, arg-min quality), sweep throughput (points/sec)
    and, for records from before the sweep cache was removed, its hit
    rate — in plain-text, markdown or JSON. *)

val default_columns : string list
(** The metric columns shown when the caller selects none: rmse_top,
    rmse_all, argmin_quality, points_per_sec, cache_hit_rate,
    cold_sweep_points_per_sec.  A column is rendered only if at least one
    entry carries the metric; a missing cell renders as ["-"]. *)

val timestamp : float -> string
(** UTC, ["YYYY-MM-DD HH:MMZ"]. *)

val columns_of : string list -> Hextime_obs.Ledger.entry list -> string list
(** The requested columns filtered to those present in at least one
    entry (requested order preserved). *)

val render :
  ?columns:string list -> Hextime_obs.Ledger.entry list -> string
(** Plain-text trend table, oldest entry first. *)

val markdown :
  ?columns:string list -> Hextime_obs.Ledger.entry list -> string
(** The same table as a markdown pipe table. *)

val json : Hextime_obs.Ledger.entry list -> Hextime_prelude.Minijson.t
(** The full entries (labels, metrics, groups) as a JSON array, oldest
    first. *)

val iso8601 : float -> string
(** UTC, full-seconds ["YYYY-MM-DDTHH:MM:SSZ"] (the CSV timestamp). *)

val csv : ?columns:string list -> Hextime_obs.Ledger.entry list -> string
(** The trend table as RFC-4180 CSV: header row [when,kind,rev,code,...],
    ISO8601 timestamps, raw number rendering (no percent scaling), empty
    cell for a missing metric. *)

val since :
  string ->
  Hextime_obs.Ledger.entry list ->
  (Hextime_obs.Ledger.entry list, string) result
(** Restrict to entries at or after a point in time.  The spec is either
    an ISO8601 date/time (["2026-08-01"], ["2026-08-01T12:30:00"],
    interpreted UTC) — kept entries are those stamped at or after it — or
    a git rev (prefix match either way against the entries' short revs):
    kept entries are the first rev-matching entry and everything after
    it.  [Error] when the spec parses as neither. *)
