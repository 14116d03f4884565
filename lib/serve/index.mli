(** The precomputed arg-min index: a compact on-disk snapshot mapping
    [digest(stencil, arch, problem)] to the recommended configuration, its
    predicted Talg and the Section-5 cost attribution.

    On disk the index is one versioned Minijson document, the snapshot,
    plus an append-only journal beside it ({!journal_path}) that holds the
    answers solved since the snapshot was written; in memory it is a hash
    table keyed by {!Advisor.request_key}, so a warm lookup is one string
    hash — the sub-millisecond path hexserve answers from.  Both files
    stamp {!Advisor.code_version}: an index produced by older advisor
    semantics refuses to load rather than serve stale recommendations
    (the server then falls back to the cold path and rebuilds entries by
    write-back). *)

type entry = {
  e_key : string;  (** {!Advisor.request_key} digest *)
  e_arch : string;  (** architecture preset name, for humans/clients *)
  e_stencil : string;
  e_space : int array;
  e_time : int;
  e_config : Hextime_tiling.Config.t;
  e_talg : float;
  e_components : Hextime_obs.Attribution.components;
}

type t

val schema : string

val create : unit -> t
val size : t -> int
val find : t -> string -> entry option

val find_rendered : t -> string -> (entry * string) option
(** {!find}, plus the entry's fields as {!add} rendered them: the compact
    JSON of {!entry_to_json} without its enclosing braces.  A served
    answer splices these bytes ({!Proto.write_answer}) rather than
    rendering the entry per request. *)

val add : t -> entry -> unit
(** Insert or replace by [e_key] — the index build, {!load} and the
    server's cold-miss write-back.  Renders the entry's fields for
    {!find_rendered} once, here; replacing an entry replaces its bytes. *)

val entries : t -> entry list
(** Sorted by key: serialisation is deterministic. *)

val entry_of_answer :
  Hextime_gpu.Arch.t -> Hextime_stencil.Problem.t -> Advisor.answer -> entry

val answer_of_entry : entry -> Advisor.answer

val entry_to_json : entry -> Hextime_prelude.Minijson.t
val entry_of_json : Hextime_prelude.Minijson.t -> (entry, string) result

val to_json : t -> Hextime_prelude.Minijson.t
val of_json : Hextime_prelude.Minijson.t -> (t, string) result

val save : t -> path:string -> (unit, string) result
(** Write the whole snapshot through {!Hextime_obs.Durable.replace}:
    rendered to [path ^ ".tmp.<pid>"], fsynced, renamed over [path], the
    directory fsynced.  A failed write leaves [path] as it was. *)

val journal_schema : string

val journal_path : string -> string
(** [journal_path path] is [path ^ ".journal"], the snapshot's journal. *)

val append : t -> path:string -> entry list -> (unit, string) result
(** Append [entries], which {!add} has put in [t], to [journal_path path]
    in one [write] ({!Hextime_obs.Durable.append}): one line each, [{] +
    the fields {!add} rendered + [}], so nothing is rendered twice.  A
    missing or empty journal first gets a header line naming
    {!journal_schema} and {!Advisor.code_version}.  Nothing is fsynced: a
    line lost to a power cut costs one re-solve, never a wrong answer. *)

type loaded = {
  snapshot_entries : int;
  journal_entries : int;  (** journal lines replayed *)
  bad_lines : int;  (** journal lines that did not parse, skipped *)
}

val load :
  path:string ->
  (t * loaded, [ `Snapshot of string | `Journal of string ]) result
(** The snapshot at [path], then every journal line that parses, applied
    in order with {!add} (which replaces by key, so replay is idempotent).
    A missing file holds nothing: a journal with no snapshot loads on its
    own, and neither file is an empty index.  A journal line that does
    not parse — a torn last line — is skipped and counted.  [`Snapshot]
    names a snapshot that does not load (unreadable, malformed, another
    schema or code version); [`Journal] a journal whose first line names
    another schema or code version.  Keys digest every pricing input, so
    a journal line is a correct answer whichever snapshot sits beside
    it. *)

val fold_journal : t -> path:string -> (unit, string) result
(** {!save} [t] to [path], and only then remove the journal.  A crash
    between the two replays lines the snapshot already holds. *)
