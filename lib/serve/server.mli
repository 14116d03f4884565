(** The hexserve advisory server: a single-binary Unix-domain-socket
    service answering tile-size queries from the precomputed arg-min
    {!Index} with O(1) warm lookups, and batching concurrent cold misses
    through the {!Hextime_parsweep.Parsweep} pool.

    The request loop is a single-threaded [select] multiplexer.  Warm hits
    are answered inside the drain round; cold misses accumulated during a
    round are solved as {e one} pool batch ({!Advisor.solve} per unique
    digest), written back into the in-memory index, appended to the
    index file at [index_path] in one write ({!Index.append}) and only
    then answered — so the next ask for any of them is warm, in this
    server and in the next one.

    {b hexpulse} — the serving telemetry stack layered on
    {!Hextime_obs.Metrics}:

    - counters [serve.requests], [serve.warm_hits], [serve.cold_misses],
      [serve.errors], [serve.audits], [serve.audits_out_of_band],
      [serve.access_log_lines]; latency histograms [serve.warm_seconds],
      [serve.cold_seconds], each with p50/p90/p99;
    - vitals gauges [serve.uptime_s], [serve.index_entries],
      [serve.requests_in_flight] (also riding along in every answer and
      stats reply);
    - the drift monitor: sampled served answers re-verified against the
      exhaustive arg-min ({!Advisor.audit}) off the request path, each
      verdict appended as an [audit] ledger record and counted into
      [serve.audit_inband_ratio] over the last 64 verdicts;
      [serve.drift_alarm] latches to 1 while that ratio is below 0.99.

    The metrics are read one way: the [stats] frame, whose reply is the
    {!Hextime_obs.Metrics.to_json} snapshot plus the vitals — the format
    of ledger records and [--profile] traces too.  Per-request detail
    goes to the structured JSONL access log ({!Access_log}), with request
    ids and slow-cold-solve attribution dumps. *)

type summary = {
  requests : int;  (** ask requests answered (warm + cold + rejected) *)
  warm_hits : int;
  cold_misses : int;
  errors : int;
  audits : int;  (** drift audits executed *)
  audits_out_of_band : int;  (** audits whose answer fell out of band *)
  drift_alarm : bool;  (** alarm state at shutdown *)
}

val run :
  ?index_path:string ->
  ?exec:Hextime_parsweep.Parsweep.exec ->
  ?max_requests:int ->
  ?on_ready:(unit -> unit) ->
  ?access_log_path:string ->
  ?slow_us:float ->
  ?audit_rate:int ->
  ?audit_cold:bool ->
  ?ledger_path:string ->
  socket_path:string ->
  unit ->
  summary
(** Serve until a [shutdown] request arrives, until [max_requests] ask
    requests have been answered, or until SIGINT/SIGTERM.  All exits take
    the same graceful path: fsync the index file and its directory
    ({!Hextime_obs.Durable.sync}), flush and close the access log, append
    the run's one [kind = "serve"] record to [ledger_path] (if given),
    close clients, unlink the socket.  The record carries the final
    counts, [elapsed_s], [requests_per_sec] and the full metrics
    snapshot, labelled [socket] and, only when a signal ended the run,
    [shutdown = sigint|sigterm]; the previous signal dispositions are
    restored before [run] returns.  SIGPIPE is ignored while [run]
    serves, so a client that hangs up before its reply costs that reply
    only.
    [index_path] is loaded ({!Index.load}) and is the write-back target
    for cold-miss answers; one stderr line reports the entries, the entry
    lines replayed and the torn lines skipped.  Without [index_path] the
    index lives only in memory.  An index file that does not load
    (unreadable, or a first line that is not a header of this code
    version) is moved to [<index_path>.bad.<unix time>] with a warning
    and the load is retried without it; if it cannot be moved, the
    server starts empty and nothing is written back.  A failed append or
    sync is reported on stderr and the server keeps serving.  [exec] drives the cold-path
    batch and the audit batches (default
    {!Hextime_parsweep.Parsweep.serial}).  [on_ready] fires after the
    socket is bound and listening, before the first accept: tests use
    it to release clients.  The socket file is unlinked on exit.

    hexpulse knobs: [access_log_path] appends one JSONL record per
    answered request; a cold solve slower than [slow_us] (default: never)
    logs its Section-5 attribution alongside.
    [audit_rate] [> 0] re-verifies every Nth warm answer against the
    exhaustive arg-min; [audit_cold] also audits every cold solve.
    Verdicts append [audit] records to [ledger_path] — each carrying the
    problem's provenance labels (arch, stencil, space, time, config) and
    the served config's [attr.*]/[pred.*] attribution metrics, the raw
    material for [hextime explain] — and drive [serve.drift_alarm]. *)

val format_req_id : int -> string
(** [format_req_id n] is the request id the [n]th request is assigned:
    the bytes of [Printf.sprintf "r%06d" n] for [n >= 0], without
    [Printf] — ["r000001"], and ["r1000000"] past six digits. *)
