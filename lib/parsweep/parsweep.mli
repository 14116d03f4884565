(** The parallel sweep engine.

    The paper's tile-size selection rests on exhaustively evaluating ~850
    configurations per experiment (Section 7), and the repository sweeps
    tens of thousands of configurations through the execution simulator in
    CI.  This module fans such a sweep out over a {!Dpool} of worker
    domains behind a single order-preserving {!map}.  Like the paper, it
    memoises nothing: every call recomputes every task, which on the
    simulator is cheaper than reading a result back from disk.

    Determinism: tasks are collected by index and the workers run the same
    deterministic code the serial path runs, so serial and parallel runs
    return identical results.  [{ serial with jobs }] differs from
    [serial] only in wall-clock. *)

module Dpool = Dpool

type backend = [ `Domains ]
(** Every parallel sweep runs on {!Dpool}'s worker domains; [`Domains] is
    the only value.  The type and the [backend] field below remain so
    that the benchmark's record literals naming the backend
    ([{ serial with jobs = n; backend = `Domains }]) keep compiling, as
    does {!map}'s ignored [key] argument. *)

type exec = {
  jobs : int;  (** worker domains; [<= 1] runs in-process *)
  backend : backend;
  reserved : unit;
      (** No meaning.  It keeps the benchmark's
          [{ serial with jobs = n; backend = `Domains }] from naming every
          field, which OCaml's warning 23 rejects; it goes with [backend]
          at the next benchmark change. *)
}

val serial : exec
(** One in-process job.  Library entry points taking [?exec] default to
    this. *)

val default : ?jobs:int -> unit -> exec
(** The CLI default: [jobs] from {!Dpool.default_jobs} (the [$HEXTIME_JOBS]
    override, else all cores). *)

type stats = { total : int  (** tasks executed, one per input *) }

val map :
  ?label:string ->
  ?key:('a -> string) ->
  exec ->
  f:('a -> 'b) ->
  'a list ->
  ('b, string) result list * stats
(** [map exec ~f tasks]: [f] applied to every task, results in task order.
    [Error] carries an exception raised by [f]; domain-level rejection
    should live inside ['b].  [key] is ignored (see {!backend}).

    [label] turns on the hexwatch heartbeat for this sweep: a
    {!Hextime_obs.Progress} tracker spanning every task publishes
    points-done/rate/ETA gauges and — when progress rendering is enabled —
    a [\r]-status line on stderr.  It is ticked at every 64th completion
    and at the last, so the gauges end at the task count.  Omitting it
    keeps the sweep silent. *)

val pp_stats : Format.formatter -> stats -> unit
(** e.g. ["850 points"]. *)
