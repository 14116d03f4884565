type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering ---------------------------------------------------------- *)

(* Every writer below appends to the caller's buffer: a document renders
   without an intermediate string per key, string value or integral
   number. *)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let add_escaped_from buf s i =
  for j = i to String.length s - 1 do
    match String.unsafe_get s j with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 0xf))
    | c -> Buffer.add_char buf c
  done

(* Keys, ids and digests almost never need escaping: scan first, and copy
   the clean prefix — usually the whole string — in one piece. *)
let add_escaped buf s =
  let n = String.length s in
  let rec clean i =
    if i >= n then n
    else
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then i else clean (i + 1)
  in
  let i = clean 0 in
  if i = n then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 i;
    add_escaped_from buf s i
  end

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* The primitive [Printf]'s %g conversion ends in: same bytes, without
   interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no literal for non-finite numbers; emitting %g's "nan"/"inf"
   would make the document unparseable.  Encode them as the strings JSON
   tooling conventionally uses (they parse back as [Str], which callers
   that care can detect).  Integral values below 1e15 are exact as ints
   and print as %.0f would: plain digits, and "-0" for negative zero. *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string buf "-0"
    else Ints.add_decimal buf (int_of_float f)
  else if Float.is_nan f then Buffer.add_string buf "\"NaN\""
  else if f = Float.infinity then Buffer.add_string buf "\"Infinity\""
  else if f = Float.neg_infinity then Buffer.add_string buf "\"-Infinity\""
  else Buffer.add_string buf (format_float "%.17g" f)

let render_number f =
  let buf = Buffer.create 24 in
  add_number buf f;
  Buffer.contents buf

let newline_indent buf n =
  Buffer.add_char buf '\n';
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

(* [items] between [op] and [cl], comma-separated; pretty output puts each
   on its own line, two spaces deeper than the brackets at indent [n]. *)
let add_items buf ~pretty n op cl add_item items =
  Buffer.add_char buf op;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      if pretty then newline_indent buf (n + 2);
      add_item item)
    items;
  (match items with [] -> () | _ -> if pretty then newline_indent buf n);
  Buffer.add_char buf cl

let rec add_value buf ~pretty n = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_number buf f
  | Str s -> add_quoted buf s
  | List items ->
      add_items buf ~pretty n '[' ']' (add_value buf ~pretty (n + 2)) items
  | Obj fields ->
      add_items buf ~pretty n '{' '}'
        (fun (k, v) ->
          add_quoted buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          add_value buf ~pretty (n + 2) v)
        fields

let render v =
  let buf = Buffer.create 256 in
  add_value buf ~pretty:true 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Single-line rendering for line-oriented formats (JSONL): same escaping
   and number formatting as [render], no indentation, no trailing
   newline — a record must occupy exactly one line of the ledger. *)
let render_compact v =
  let buf = Buffer.create 256 in
  add_value buf ~pretty:false 0 v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Bad of int * string

(* The deepest committed artifact nests 5 levels.  Without a cap, one
   1 MiB frame of '[' recurses a million times in the serving loop. *)
let max_depth = 256
let too_deep = Printf.sprintf "nesting deeper than %d" max_depth

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    let rec matches i =
      i = len
      || String.unsafe_get s (!pos + i) = String.unsafe_get word i
         && matches (i + 1)
    in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the rest of a string from its first backslash on *)
  let parse_escaped start =
    let buf = Buffer.create (!pos - start + 16) in
    Buffer.add_substring buf s start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match String.unsafe_get s !pos with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (if !pos >= n then fail "bad escape";
           match String.unsafe_get s !pos with
           | 'n' -> Buffer.add_char buf '\n'; incr pos
           | 't' -> Buffer.add_char buf '\t'; incr pos
           | 'r' -> Buffer.add_char buf '\r'; incr pos
           | ('"' | '\\' | '/') as c -> Buffer.add_char buf c; incr pos
           | 'u' ->
               if !pos + 4 >= n then fail "bad \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 match int_of_string_opt ("0x" ^ hex) with
                 | Some c -> c
                 | None -> fail "bad \\u escape"
               in
               (* ASCII range only; the writer never emits more *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else fail "non-ASCII \\u escape unsupported";
               pos := !pos + 5
           | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  (* a string without escapes is one [String.sub] of the input *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec scan () =
      if !pos >= n then fail "unterminated string";
      match String.unsafe_get s !pos with
      | '"' ->
          incr pos;
          String.sub s start (!pos - 1 - start)
      | '\\' -> parse_escaped start
      | _ ->
          incr pos;
          scan ()
    in
    scan ()
  in
  (* A token of the form -?[0-9]{1,15} is an int exactly representable
     as a float; anything else goes through [float_of_string_opt]. *)
  let parse_number () =
    let start = !pos in
    let neg = at '-' in
    if neg then incr pos;
    let digits = !pos in
    let acc = ref 0 in
    while
      !pos < n
      &&
      match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
    do
      acc := (!acc * 10) + Char.code (String.unsafe_get s !pos) - 48;
      incr pos
    done;
    let len = !pos - digits in
    if len >= 1 && len <= 15 && not (!pos < n && is_num_char (String.unsafe_get s !pos))
    then if neg then -.float_of_int !acc else float_of_int !acc
    else begin
      while !pos < n && is_num_char (String.unsafe_get s !pos) do
        incr pos
      done;
      let str = String.sub s start (!pos - start) in
      match float_of_string_opt str with
      | Some f -> f
      | None -> fail (Printf.sprintf "bad number %S" str)
    end
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' | '[' when depth = max_depth -> fail too_deep
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            if at ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else if at '}' then begin
              incr pos;
              List.rev ((k, v) :: acc)
            end
            else fail "expected ',' or '}'"
          in
          Obj (fields [])
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            if at ',' then begin
              incr pos;
              items (v :: acc)
            end
            else if at ']' then begin
              incr pos;
              List.rev (v :: acc)
            end
            else fail "expected ',' or ']'"
          in
          List (items [])
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "minijson: %s at offset %d" msg at)

(* [String.equal], not [List.assoc_opt]'s polymorphic compare: a reply
   decode looks up some twenty keys. *)
let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj fields -> assoc k fields | _ -> None

let number = function Num f -> Some f | _ -> None
let string = function Str s -> Some s | _ -> None
