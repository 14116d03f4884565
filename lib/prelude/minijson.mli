(** A minimal JSON reader/writer for the repo's machine-readable artifacts
    (bench baselines, report payloads).

    Deliberately tiny: objects, arrays, strings, numbers, booleans and
    null — no streaming, no options, no dependency.  Numbers are floats;
    [render] prints them with enough digits ([%.17g]) to round-trip
    exactly, so a written baseline compares bit-for-bit after [parse]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val render : t -> string
(** Render with two-space indentation and a trailing newline.  Non-finite
    numbers have no JSON literal and are rendered deterministically as the
    strings ["NaN"], ["Infinity"] and ["-Infinity"] (so they parse back as
    [Str], never as invalid bare [nan]/[inf] tokens). *)

val render_compact : t -> string
(** Like {!render} but on a single line with no trailing newline — one
    record per line for JSONL artifacts (the hexwatch run ledger).  The
    number and string encodings are identical to {!render}'s, so compact
    output round-trips through {!parse} just the same. *)

val render_number : float -> string
(** {!render}'s number encoding alone: integral values below 1e15 as plain
    digits (the bytes of [%.0f], so [-0.0] is ["-0"]), every other finite
    value as [%.17g], non-finite values as the quoted strings above.  No
    [Printf] on the way: the digits are written directly, [%.17g] by the
    C primitive [Printf] itself ends in.  For callers that stream JSON
    into a buffer themselves (the serving access log) and must stay
    byte-identical with {!render}. *)

val add_number : Buffer.t -> float -> unit
(** {!render_number} appended to a buffer, without the intermediate
    string: the writer a caller splicing numbers into pre-rendered JSON
    (the serving reply) uses to stay byte-identical with {!render}. *)

val add_escaped : Buffer.t -> string -> unit
(** {!render}'s string-content escaping alone, appended to a buffer
    (quotes not included): double quote and backslash get a backslash,
    newline, CR and tab become the two-character escapes n, r and t,
    other bytes below 0x20 become [\u00XX]; every other byte, including
    those above 0x7f, is copied as is.  The string is scanned first, so
    one that needs no escaping is appended in one piece. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries the offset and reason.
    Rejects trailing garbage, and documents nesting arrays and objects
    more than 256 deep (the error names the offset of the first bracket
    past the cap), so a hostile frame cannot recurse the parser through
    a megabyte of ['[']. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val number : t -> float option
(** The payload of a [Num]. *)

val string : t -> string option
(** The payload of a [Str]. *)
