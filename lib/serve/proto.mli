(** The hexserve wire protocol: length-prefixed compact JSON frames over a
    Unix-domain stream socket.

    Each frame is a 4-byte big-endian payload length followed by one
    compact {!Hextime_prelude.Minijson} document; frames at most
    {!max_frame} bytes.  Requests are [ask] (one advisory query), [stats]
    (the server's metrics snapshot plus server vitals, the one way to read
    its metrics) and [shutdown]; replies carry a [status] field plus the
    answer entry (with its [warm]/[cold] provenance, request id and
    server-side latency), the metrics snapshot, or an error message.  See
    [docs/SERVING.md] for the JSON schemas. *)

val max_frame : int

val write_frame : Unix.file_descr -> Hextime_prelude.Minijson.t -> unit
(** Blocking write of one frame: header and payload in a single buffer,
    handed to one [write] (resumed only if the kernel takes part of it).
    Raises [Unix.Unix_error] on a broken connection and
    [Invalid_argument] past {!max_frame}, before writing anything. *)

val read_frame :
  Unix.file_descr -> (Hextime_prelude.Minijson.t option, string) result
(** Blocking read of one frame.  [Ok None] is a clean end-of-stream
    between frames; truncation, an oversized length prefix or unparseable
    payload is [Error]. *)

(** {1 Requests} *)

type request =
  | Ask of { arch : string; stencil : string; space : int array; time : int }
  | Stats
  | Shutdown

val request_to_json : request -> Hextime_prelude.Minijson.t
val request_of_json : Hextime_prelude.Minijson.t -> (request, string) result

(** {1 Replies} *)

type source = Warm | Cold

val source_to_string : source -> string
val source_of_string : string -> source option

type answer = {
  source : source;
  entry : Index.entry;
  latency_us : float;
  req_id : string;  (** server-assigned request id; [""] when unknown *)
  server : (string * float) list;
      (** server vitals riding along with every answer and stats reply:
          [uptime_s], [index_entries], [requests_in_flight] *)
}

type reply =
  | Answer of answer
  | Stats_reply of { metrics : Hextime_prelude.Minijson.t;
                     server : (string * float) list }
      (** {!Hextime_obs.Metrics.to_json} of the refreshed registry *)
  | Error_reply of string

val reply_to_json : reply -> Hextime_prelude.Minijson.t
(** The reference encoding of every reply; {!write_answer} must match it
    byte for byte on answers. *)

val write_answer : Unix.file_descr -> answer -> fields:string -> unit
(** [write_answer fd a ~fields] sends the frame
    [write_frame fd (reply_to_json (Answer a))] sends, byte for byte,
    given [fields] as {!Index.find_rendered} returns them for [a.entry]:
    the fixed keys, [latency_us], [req_id] and the [server] vitals are
    written around the pre-rendered entry fields, and [a.entry] itself is
    not read.  Header and payload go out in one [write]; raises as
    {!write_frame} does. *)

val reply_of_json : Hextime_prelude.Minijson.t -> (reply, string) result
