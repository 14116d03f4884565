module Minijson = Hextime_prelude.Minijson
module Metrics = Hextime_obs.Metrics

(* Structured JSONL access log: one compact record per answered request.
   Records are buffered (a line is a single [output_string], so records
   never tear) and flushed on a cadence by the serving loop — a per-line
   [flush] costs a write syscall per request, which an A/B bench put at
   ~10% of the whole warm round-trip.  Slow cold solves additionally
   carry the answer's Section-5 cost attribution, so "why was this
   request slow" is answerable from the log alone. *)

let lines_counter = Metrics.counter "serve.access_log_lines"

type t = {
  oc : out_channel;
  path : string;
  buf : Buffer.t;  (** reused per record; a log call must not allocate one *)
  mutable lines : int;
  mutable last_flush : float;
}

let flush_interval_s = 1.0

let open_ ~path =
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
  | exception Sys_error msg -> Error msg
  | oc ->
      Ok
        {
          oc;
          path;
          buf = Buffer.create 256;
          lines = 0;
          last_flush = Unix.gettimeofday ();
        }

let path t = t.path
let lines t = t.lines

let close t =
  (try flush t.oc with Sys_error _ -> ());
  close_out_noerr t.oc

let maybe_flush t ~now =
  if now -. t.last_flush >= flush_interval_s then begin
    t.last_flush <- now;
    try flush t.oc with Sys_error _ -> ()
  end

(* The record is streamed straight into the reused buffer — no Minijson
   tree, no [render_compact] (the A/B bench put the tree + render at ~3 us
   per record, most of the log's warm-path cost; this path is ~1 us).
   Strings go through Minijson's scan-first escaper: request digests,
   sources and config ids never need escaping, so the common case is one
   bulk [Buffer.add_string].  Times are rendered at fixed precision by
   integer math rather than %.17g: microseconds on the unix timestamp and
   on the latency are exact enough for a log. *)
let add_str t s =
  Buffer.add_char t.buf '"';
  Minijson.add_escaped t.buf s;
  Buffer.add_char t.buf '"'

(* the [width] low decimal digits of [n >= 0], zero-padded *)
let rec add_padded buf width n =
  if width > 1 then add_padded buf (width - 1) (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Fixed 6-decimal rendering: [f] is a unix timestamp or a latency in us,
   both far inside the range where [f *. 1e6] is exact to the digit. *)
let add_time t f =
  if not (Float.is_finite f) then
    Buffer.add_string t.buf (Minijson.render_number f)
  else begin
    let scaled = Int64.of_float (Float.round (f *. 1e6)) in
    let sec = Int64.div scaled 1_000_000L in
    let frac = Int64.to_int (Int64.rem scaled 1_000_000L) in
    let sec, frac =
      if frac < 0 then (Int64.sub sec 1L, frac + 1_000_000) else (sec, frac)
    in
    Buffer.add_string t.buf (Int64.to_string sec);
    Buffer.add_char t.buf '.';
    add_padded t.buf 6 frac
  end

let log t ~ts ~req_id ~key ~source ~latency_us ?digest ?error ?attribution ()
    =
  Buffer.clear t.buf;
  Buffer.add_string t.buf "{\"ts\":";
  add_time t ts;
  Buffer.add_string t.buf ",\"req_id\":";
  add_str t req_id;
  Buffer.add_string t.buf ",\"key\":";
  add_str t key;
  Buffer.add_string t.buf ",\"source\":";
  add_str t source;
  Buffer.add_string t.buf ",\"latency_us\":";
  add_time t latency_us;
  Option.iter
    (fun d ->
      Buffer.add_string t.buf ",\"digest\":";
      add_str t d)
    digest;
  Option.iter
    (fun e ->
      Buffer.add_string t.buf ",\"error\":";
      add_str t e)
    error;
  Option.iter
    (fun a ->
      Buffer.add_string t.buf ",\"slow\":true,\"attribution\":";
      Buffer.add_string t.buf (Minijson.render_compact a))
    attribution;
  Buffer.add_string t.buf "}\n";
  (* best-effort: a full disk must not take the serving loop down *)
  (try Buffer.output_buffer t.oc t.buf with Sys_error _ -> ());
  t.lines <- t.lines + 1;
  Metrics.incr lines_counter
