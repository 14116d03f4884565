(** Client side of the hexserve protocol: one blocking round-trip per
    call over a connected Unix-domain socket.  Connections are cheap and
    reusable — [hextime ask] opens one, the bench holds one open across
    thousands of warm queries. *)

val connect :
  ?attempts:int ->
  ?delay_s:float ->
  socket_path:string ->
  unit ->
  (Unix.file_descr, string) result
(** Connect to a serving socket.  With [attempts > 1], retries every
    [delay_s] seconds (default 50ms) — for racing a server that is still
    starting up. *)

val close : Unix.file_descr -> unit

val ask :
  Unix.file_descr ->
  arch:string ->
  stencil:string ->
  space:int array ->
  time:int ->
  (Proto.answer, string) result
(** One advisory query.  The answer carries the provenance
    ([Warm]/[Cold]), the index entry (recommended config, predicted Talg,
    attribution), the server-side latency in microseconds, the server's
    request id and the server vitals ([uptime_s], [index_entries],
    [requests_in_flight]). *)

val stats :
  Unix.file_descr ->
  (Hextime_prelude.Minijson.t * (string * float) list, string) result
(** The server's metrics snapshot ({!Hextime_obs.Metrics.to_json}:
    counters, gauges and latency histograms with p50/p90/p99) plus the
    server vitals assoc — what [hextime metrics-verify] checks and
    [hextime dash] draws. *)

val shutdown : Unix.file_descr -> (unit, string) result
(** Ask the server to exit after replying. *)
