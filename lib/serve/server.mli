(** The hexserve advisory server: a single-binary Unix-domain-socket
    service answering tile-size queries from the precomputed arg-min
    {!Index} with O(1) warm lookups, and batching concurrent cold misses
    through the {!Hextime_parsweep.Parsweep} pool.

    The request loop is a single-threaded [select] multiplexer.  Warm hits
    are answered inside the drain round; cold misses accumulated during a
    round are solved as {e one} pool batch ({!Advisor.solve} per unique
    digest), written back into the in-memory index, appended to the
    journal beside [index_path] in one write ({!Index.append}) and only
    then answered — so the next ask for any of them is warm, in this
    server and in the next one.

    {b hexpulse} — the serving telemetry stack layered on
    {!Hextime_obs.Metrics}:

    - counters [serve.requests], [serve.warm_hits], [serve.cold_misses],
      [serve.errors], [serve.audits], [serve.audits_out_of_band],
      [serve.http_scrapes], [serve.access_log_lines]; latency histograms
      [serve.warm_seconds], [serve.cold_seconds];
    - vitals gauges [serve.uptime_s], [serve.index_entries],
      [serve.requests_in_flight] (also riding along in every answer and
      stats reply), scrape-time quantile gauges [serve.warm_p50_us],
      [serve.warm_p99_us];
    - rolling SLO windows ({!Hextime_obs.Slo}, [slo.*] gauges) fed by
      every answered request and ticked each loop iteration;
    - the drift monitor: sampled served answers re-verified against the
      exhaustive arg-min ({!Advisor.audit}) off the request path, each
      verdict appended as an [audit] ledger record and folded into
      [serve.audit_inband_ratio]; [serve.drift_alarm] latches to 1 while
      the rolling in-band ratio is below [drift_min_ratio].

    Everything is visible three ways: the [stats] frame (JSON snapshot),
    the [metrics] frame and plain-HTTP [GET /metrics] on [http_port]
    (both the same {!Hextime_obs.Openmetrics} text exposition), and the
    structured JSONL access log ({!Access_log}) with per-request ids and
    slow-cold-solve attribution dumps. *)

type summary = {
  requests : int;  (** ask requests answered (warm + cold + rejected) *)
  warm_hits : int;
  cold_misses : int;
  errors : int;
  audits : int;  (** drift audits executed *)
  audits_out_of_band : int;  (** audits whose answer fell out of band *)
  drift_alarm : bool;  (** alarm state at shutdown *)
  scrapes : int;  (** HTTP [GET /metrics] requests served *)
}

val run :
  ?index_path:string ->
  ?exec:Hextime_parsweep.Parsweep.exec ->
  ?max_requests:int ->
  ?on_ready:(unit -> unit) ->
  ?http_port:int ->
  ?on_http_port:(int -> unit) ->
  ?access_log_path:string ->
  ?slow_us:float ->
  ?slo:Hextime_obs.Slo.spec ->
  ?audit_rate:int ->
  ?audit_cold:bool ->
  ?drift_min_ratio:float ->
  ?ledger_path:string ->
  socket_path:string ->
  unit ->
  summary
(** Serve until a [shutdown] request arrives, until [max_requests] ask
    requests have been answered, or until SIGINT/SIGTERM.  All exits take
    the same graceful path: fold the journal into the snapshot
    ({!Index.fold_journal}, if anything was appended or a journal was
    found at start-up), flush and close the access log, close clients,
    unlink the socket.  A signal-driven exit
    additionally appends one [kind = "serve"] record to [ledger_path]
    (label [shutdown = sigint|sigterm]) carrying the final vitals and the
    full metrics snapshot; the previous signal dispositions are restored
    before [run] returns.  SIGPIPE is ignored while [run] serves, so a
    client that hangs up before its reply costs that reply only.
    [index_path] and its journal are loaded ({!Index.load}) and are the
    write-back target for cold-miss answers; one stderr line reports the
    snapshot entries, the journal entries replayed and the bad journal
    lines skipped.  Without [index_path] the index lives only in memory.
    A snapshot that does not load (malformed, or from another code
    version) is moved to [<index_path>.bad.<unix time>] with a warning,
    a journal whose header names another schema or code version to
    [<index_path>.journal.bad.<unix time>], and the load is retried
    without it; if it cannot be moved, the server starts empty and
    nothing is written back.  A failed append or fold is reported on
    stderr and the server keeps serving.  [exec] drives the cold-path
    batch and the audit batches (default
    {!Hextime_parsweep.Parsweep.serial}).  [on_ready] fires after the
    sockets are bound and listening, before the first accept: tests use
    it to release clients.  The socket file is unlinked on exit.

    hexpulse knobs: [http_port] additionally binds a loopback TCP socket
    answering [GET /metrics] ([0] picks an ephemeral port, reported via
    [on_http_port]).  [access_log_path] appends one JSONL record per
    answered request; a cold solve slower than [slow_us] (default: never)
    logs its Section-5 attribution alongside.  [slo] configures the
    rolling windows (default {!Hextime_obs.Slo.default_spec}).
    [audit_rate] [> 0] re-verifies every Nth warm answer against the
    exhaustive arg-min; [audit_cold] also audits every cold solve.
    Verdicts append [audit] records to [ledger_path] — each carrying the
    problem's provenance labels (arch, stencil, space, time, config) and
    the served config's [attr.*]/[pred.*] attribution metrics, the raw
    material for [hextime explain] — and drive [serve.drift_alarm]
    against [drift_min_ratio] (default [0.99]); alarm transitions also
    feed the live [alert.firing]/[alert.fired] hexlens gauges. *)

val format_req_id : int -> string
(** [format_req_id n] is the request id the [n]th request is assigned:
    the bytes of [Printf.sprintf "r%06d" n] for [n >= 0], without
    [Printf] — ["r000001"], and ["r1000000"] past six digits. *)
