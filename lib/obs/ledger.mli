(** hexwatch: the persistent run ledger.

    Every substantive run — a validation sweep, a campaign estimate, a
    tuning session, an index build, a served session — appends one
    provenance-stamped record to an append-only JSONL file.  The ledger is
    what turns the repository's accuracy and throughput figures from
    printed-and-forgotten numbers into a trajectory: [hextime history]
    renders trends over it and CI uploads it as an artifact.

    Records are one compact JSON object per line
    ({!Hextime_prelude.Minijson.render_compact}), so the file survives
    partial writes: {!load} tolerates a corrupt or truncated trailing line
    (counted, not fatal) and skips records whose schema version it does not
    understand — an old binary reading a newer ledger degrades gracefully. *)

type entry = {
  schema : int;  (** {!schema_version} at write time *)
  kind : string;
      (** "validate" | "campaign" | "tune" | "index" | "serve" | ...; older
          ledgers also hold "bench" *)
  time_unix : float;  (** seconds since the epoch, at {!make} time *)
  code_version : string;
      (** the sweep-layer code version (see {!Hextime_harness}); ties a
          record to the model/simulator semantics that produced it *)
  git_rev : string;  (** short commit hash, [""] when not in a checkout *)
  labels : (string * string) list;
      (** free-form provenance: arch, scale, stencil, jobs ... *)
  metrics : (string * float) list;
      (** scalar run figures: rmse_top, points_per_sec, cache_hit_rate ... *)
  groups : (string * (string * float) list) list;
      (** named sub-records, e.g. one {!Hextime_harness} validation summary
          per stencil×machine experiment *)
  snapshot : Hextime_prelude.Minijson.t option;
      (** the final {!Metrics} snapshot of the run, if captured *)
}

val schema_version : int

val git_rev : unit -> string
(** Short [git rev-parse] of HEAD, or [""] outside a git checkout (the
    result is memoised; the subprocess runs at most once). *)

val make :
  ?labels:(string * string) list ->
  ?metrics:(string * float) list ->
  ?groups:(string * (string * float) list) list ->
  ?snapshot:Hextime_prelude.Minijson.t ->
  kind:string ->
  code_version:string ->
  unit ->
  entry
(** Build a record stamped with the current time and {!git_rev}. *)

val default_path : unit -> string
(** [$HEXTIME_LEDGER] when set, else ["hexwatch-ledger.jsonl"] in the
    working directory. *)

val to_json : entry -> Hextime_prelude.Minijson.t

val of_json : Hextime_prelude.Minijson.t -> (entry, string) result
(** [Error] on records that are not hexwatch entries at all; an [Ok] entry
    may still carry an unknown {!schema} (the caller decides — {!load}
    skips them). *)

val append : path:string -> entry -> (unit, string) result
(** Append one line through {!Durable.append}; creates the file (and
    nothing else) if missing.  The line is written with a single [write]
    after the record is fully rendered, so concurrent appenders interleave
    at line granularity.  A failed write (a full disk, a file-size limit)
    is an [Error].  If the file ends in a torn line, a newline goes first:
    the torn line loads as one corrupt line and this record loads whole. *)

type loaded = {
  entries : entry list;  (** oldest first, in file order *)
  corrupt_lines : int;  (** unparseable or non-entry lines skipped *)
  unknown_schema : int;  (** well-formed entries from a different schema *)
}

val load : path:string -> (loaded, string) result
(** Read a whole ledger.  Only a missing/unreadable file is an [Error];
    damaged content degrades to counted skips.  Blank lines are ignored. *)

val filter :
  ?kind:string -> ?label:string * string -> entry list -> entry list
(** Keep entries matching the kind and/or carrying the given label pair. *)

val latest : int -> entry list -> entry list
(** The last [n] entries (oldest-first order preserved). *)

val metric : entry -> string -> float option
(** Scalar metric lookup. *)

val group_metric : entry -> group:string -> string -> float option
(** Metric lookup inside a named group. *)

(** {1 Lifecycle}

    An append-only ledger grows without bound; [hextime watch] exposes
    these as [--rotate-mb] / [--rotate-days] / [--compact]. *)

val rotate :
  path:string ->
  ?max_bytes:int ->
  ?max_age_s:float ->
  ?now:float ->
  unit ->
  (string option, string) result
(** Rename the ledger aside (to [path.YYYYMMDDTHHMMSSZ], suffixed [-N]
    on collision) when it exceeds [max_bytes] or its {e first record} is
    older than [max_age_s] — age is judged from the ledger's own
    timestamps, never the file mtime, so a fresh checkout does not
    rotate a young ledger.  Returns the rotated-to path, or [None] when
    no threshold tripped (including a missing file).  The next {!append}
    recreates [path] empty. *)

val compact :
  path:string -> ?drop_labels:string list -> unit -> (int * int, string) result
(** Rewrite the ledger keeping only the {e latest} record per (kind,
    label-set) identity, atomically and durably ({!Durable.replace}: a
    compaction stopped before its rename leaves the ledger untouched).
    [drop_labels] (default [["req_id"]]) names labels excluded from the
    identity —
    per-request ids would otherwise make every audit record unique.
    Records with an unknown schema version are kept verbatim (their
    identity cannot be judged); corrupt lines are dropped.  Returns
    (kept, dropped) line counts.  Compaction is deliberately lossy: it
    trades per-run history for one latest record per experiment, so run
    it only when the trend window has been mined (or rotated aside). *)
