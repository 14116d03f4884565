(** The parallel cached sweep engine.

    The paper's tile-size selection rests on exhaustively evaluating ~850
    configurations per experiment (Section 7), and the repository sweeps
    tens of thousands of configurations through the execution simulator in
    CI.  This module makes that cheap: an execution context bundling a
    {!Dpool} of worker domains with an on-disk {!Cache}, behind a single
    order-preserving {!map}.

    Layering: {!Cache} knows nothing about workers, {!Dpool} knows nothing
    about persistence; [map] consults the cache, fans the misses out to
    the pool, and persists each computed result as it arrives (the pool's
    [on_result] hook), so a killed sweep resumes from its last completed
    point.

    Determinism: tasks are keyed and collected by index, the cache stores
    marshalled values (bit-exact floats), and the workers run the same
    deterministic code the serial path runs — so serial, parallel, cold
    and warm runs all return identical results.  [{ serial with jobs }]
    differs from [serial] only in wall-clock. *)

module Cache = Cache
module Dpool = Dpool

type backend = [ `Domains ]
(** Every parallel sweep runs on {!Dpool}'s worker domains; [`Domains] is
    the only value.  The type and the [backend] field below remain so
    that record literals naming the backend
    ([{ serial with jobs = n; backend = `Domains }]) keep compiling. *)

type exec = {
  jobs : int;  (** worker domains; [<= 1] runs in-process *)
  cache : Cache.t option;  (** [None] disables memoisation *)
  backend : backend;
}

val serial : exec
(** One in-process job, no cache: byte-for-byte the behaviour the
    harness had before the engine existed.  Library entry points taking
    [?exec] default to this. *)

val default : ?jobs:int -> ?cache_dir:string -> unit -> exec
(** The CLI default: [jobs] from {!Dpool.default_jobs} (the [$HEXTIME_JOBS]
    override, else all cores) and a cache at [cache_dir] (default
    {!Cache.default_dir}, which honours [$HEXTIME_CACHE_DIR]). *)

type stats = {
  total : int;
  cache_hits : int;  (** tasks answered from the cache, no execution *)
  computed : int;  (** tasks actually executed *)
}

val map :
  ?label:string ->
  exec ->
  key:('a -> string) ->
  f:('a -> 'b) ->
  'a list ->
  ('b, string) result list * stats
(** [map exec ~key ~f tasks]: results in task order.  [key] must
    determine [f]'s result completely (include a code-version tag — see
    {!Cache}); cached values are returned without executing [f].  [Error]
    carries an exception raised by [f]; domain-level rejection should
    live inside ['b].  Only [Ok] results are persisted.

    [label] turns on the hexwatch heartbeat for this sweep: a
    {!Hextime_obs.Progress} tracker spanning every task (cache hits
    included) publishes points-done/rate/ETA gauges and — when progress
    rendering is enabled — a [\r]-status line on stderr.  Omitting it
    keeps the sweep silent, exactly as before. *)

val pp_stats : Format.formatter -> stats -> unit
(** e.g. ["850 points: 840 cached, 10 computed"]. *)
