(** Span tracer exporting Chrome trace-event JSON (loadable in
    chrome://tracing or {{:https://ui.perfetto.dev}Perfetto}).

    Tracing is {b off by default}: [with_span] costs one [ref] read when
    disabled and argument thunks are only forced on the enabled path, so
    instrumented hot code stays free.  Event timestamps are microseconds
    since a wall-clock epoch captured at module load.  The buffer is
    shared by every domain of the process; each event's [ev_tid] names the
    recording domain, so a sweep's worker domains show up as separate
    lanes. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : string;      (** "X" complete, "B"/"E" begin/end, "i" instant *)
  ev_ts_us : float;    (** start, microseconds since epoch *)
  ev_dur_us : float;   (** duration for "X" events; 0 otherwise *)
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Microseconds since the trace epoch. *)
val now_us : unit -> float

(** Construct an event without recording it ([ev_pid] is the calling
    process, [ev_tid] the calling domain). *)
val make :
  ?cat:string ->
  ?args:(string * string) list ->
  ?ph:string ->
  ?dur_us:float ->
  ts_us:float ->
  string ->
  event

(** Record an event unconditionally (no [enabled] check — callers that want
    gating use [with_span]/[instant]). *)
val emit : event -> unit

(** [with_span name f] runs [f] inside a complete ("X") span when tracing
    is enabled, otherwise just runs [f].  [args] is a thunk so building the
    key:value list costs nothing when disabled.  The span is recorded even
    if [f] raises. *)
val with_span :
  ?cat:string -> ?args:(unit -> (string * string) list) -> string ->
  (unit -> 'a) -> 'a

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** All recorded events, oldest first. *)
val events : unit -> event list

val num_events : unit -> int

(** Clear the buffer. *)
val reset : unit -> unit

(** Chrome trace-event JSON: an object with a [traceEvents] array plus any
    [extra] top-level members (e.g. a merged metrics snapshot). *)
val to_json :
  ?extra:(string * Hextime_prelude.Minijson.t) list ->
  event list ->
  Hextime_prelude.Minijson.t

val write_file :
  ?extra:(string * Hextime_prelude.Minijson.t) list ->
  string -> event list -> unit
