(** The precomputed arg-min index: a map from
    [digest(stencil, arch, problem)] to the recommended configuration, its
    predicted Talg and the Section-5 cost attribution.

    On disk the index is one append-only JSONL file: a header line naming
    {!schema} and {!Advisor.code_version}, then one line per entry, the
    compact JSON of {!entry_to_json}.  {!save} writes the whole file;
    the server appends the answers it solves ({!append}); {!load} replays
    the lines in order.  In memory it is a hash table keyed by
    {!Advisor.request_key}, so a warm lookup is one string hash — the
    sub-millisecond path hexserve answers from.  A file produced by older
    advisor semantics refuses to load rather than serve stale
    recommendations (the server then moves it aside, falls back to the
    cold path and rebuilds entries by write-back). *)

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
(** ["hextime-serve-index-v2"], named by the file's header line. *)

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

val save : t -> path:string -> (unit, string) result
(** Write the whole file, entries sorted by key, through
    {!Hextime_obs.Durable.replace}: rendered to [path ^ ".tmp.<pid>"],
    fsynced, renamed over [path], the directory fsynced.  A failed write
    leaves [path] as it was. *)

val append : t -> path:string -> entry list -> (unit, string) result
(** Append [entries], which {!add} has put in [t], to [path] in one
    [write] ({!Hextime_obs.Durable.append}): one line each, [{] + the
    fields {!add} rendered + [}], so nothing is rendered twice.  A file
    shorter than the header line — missing, empty, or a header cut short —
    holds no entry and is replaced ({!Hextime_obs.Durable.replace}) by the
    header and the lines instead.  An append is not fsynced: a line lost
    to a power cut costs one re-solve, never a wrong answer. *)

type loaded = {
  entry_lines : int;  (** entry lines replayed *)
  torn_lines : int;  (** lines that did not parse, skipped *)
}

val load : path:string -> (t * loaded, string) result
(** Replay the file at [path]: every entry line that parses is applied
    in order with {!add}, so a key's later line replaces its earlier one.
    A line that does not parse — a torn last line — is skipped and
    counted, and so is a header cut short in a file that holds nothing
    else.  A missing or empty file is an empty index.  [Error] names a
    file that cannot be read, or whose first line is not a header naming
    {!schema} and the current {!Advisor.code_version}. *)
