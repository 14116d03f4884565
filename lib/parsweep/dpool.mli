(** Worker pool: run a pure function over an array of tasks on [N] domains
    of this process, sharing the heap.

    Workers are [Domain.spawn]ed into the same address space: tasks are
    claimed off one atomic counter, results are written by reference into
    their output slot, and the warm state the sweep depends on — the
    calibration memos, the {!Hextime_obs.Metrics} registry, the trace
    buffer — is shared live, all of it domain-safe.

    The trade-offs, explicitly:

    - {b No fault isolation.}  An exception in [f] is caught and returned
      as [Error], but a segfault, OOM-kill or infinite loop takes the
      whole process with it: there is no per-task timeout or retry, since
      a domain cannot be killed in isolation.
    - {b Shared mutable state must be domain-safe.}  Everything the
      harness's [f] touches is (atomically published calibration memos,
      atomic counters, mutexed trace buffer); new global state reachable
      from a sweep must follow suit.

    Determinism: results land at their task index and [f] is
    deterministic, so serial and parallel runs return bit-identical
    results (CI [cmp]s the CSVs).

    [on_progress] is serialised under one internal mutex (it feeds the
    progress tracker, which is not domain-safe) and may be called from
    any worker domain. *)

type 'b outcome = ('b, string) result

val default_jobs : unit -> int
(** [$HEXTIME_JOBS] if set to a positive integer, else the machine's
    recommended parallelism ([Domain.recommended_domain_count]).
    Non-numeric, zero and negative values fall back to the machine
    default. *)

val map :
  ?jobs:int ->
  ?on_progress:(done_:int -> alive:int -> busy:int -> unit) ->
  f:('a -> 'b) ->
  'a array ->
  'b outcome array
(** [map ~f tasks] evaluates [f] on every task across [jobs] domains
    (default {!default_jobs}; the calling domain works too, so [jobs]
    domains run in total) and returns the outcomes in task order.  Every
    task is executed exactly once.  [jobs <= 1] or fewer than two tasks
    runs in-process with no spawning.  [on_progress] is called as each
    outcome is recorded, in completion order, with the running completion
    count and the worker liveness ([alive] domains of which [busy] have a
    task in flight; both 0 on the in-process path). *)
