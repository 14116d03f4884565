(** hexwatch: live sweep heartbeats.

    A long sweep (108k points at paper scale) used to be silent for its
    whole runtime.  The sweep engine now drives one {!t} per sweep:
    every completion {!tick}s it, and — throttled to {!interval_s} — the
    heartbeat publishes

    - {!Metrics} gauges ([sweep.points_done], [sweep.points_total],
      [sweep.points_per_sec], [sweep.eta_seconds], [pool.workers_alive],
      [pool.workers_busy]) — always, they are cheap and feed the ledger's
      final snapshot;
    - a one-line TTY status ([\r]-rewritten on stderr) — only when
      rendering is {!enabled};
    - an instant trace event ([hexwatch.heartbeat]) when tracing is on.

    Published rates and ETAs are always finite: ticks landing within the
    clock's granularity of the sweep start (instantly finished tasks)
    report a rate of 0 rather than dividing by a near-zero elapsed time,
    and an unknown total (0) renders a bare count, never a percentage.

    Rendering is {b off unless stderr is a TTY} (overridable with
    [$HEXTIME_PROGRESS=1]/[0] or {!enable}/{!disable}), and always writes
    to stderr: stdout and CSV artifacts stay byte-identical with
    heartbeats on — CI [cmp]s them, as it does for [--profile]. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val auto_enable : unit -> unit
(** The CLI policy: enabled iff stderr is a TTY, with [$HEXTIME_PROGRESS]
    (["1"]/["0"]) taking precedence either way. *)

val interval_s : float
(** Minimum seconds between emissions (0.5). *)

type t

val create : ?total:int -> label:string -> unit -> t
(** [total = 0] (the default) renders a spinner-style count without an
    ETA. *)

val tick : ?workers_alive:int -> ?workers_busy:int -> t -> done_:int -> unit
(** Record progress; emits at most once per {!interval_s} (plus always on
    the final point when [total] is known). *)

val finish : t -> unit
(** Clear the status line (when one was rendered) and publish final
    gauges.  Idempotent. *)
