(** The precomputed arg-min index: a compact on-disk snapshot mapping
    [digest(stencil, arch, problem)] to the recommended configuration, its
    predicted Talg and the Section-5 cost attribution.

    On disk the index is one versioned Minijson document; in memory it is
    a hash table keyed by {!Advisor.request_key}, so a warm lookup is one
    string hash — the sub-millisecond path hexserve answers from.  The
    file stamps {!Advisor.code_version}: an index produced by older
    advisor semantics refuses to load rather than serve stale
    recommendations (the server then falls back to the cold path and
    rebuilds entries by write-back). *)

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
(** Atomic: renders to [path ^ ".tmp.<pid>"], then renames. *)

val load : path:string -> (t, string) result
