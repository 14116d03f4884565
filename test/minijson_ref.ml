(* A frozen copy of Minijson's renderer and parser as they stood before
   the buffer-writing codec replaced them: Printf number formatting, a
   Buffer per string, an option per peeked byte, no nesting cap.  Tests
   are its only caller; the differential properties in test_prelude.ml
   check the live codec against it byte for byte and bit for bit.  Do
   not "fix" or speed up this file: its value is that it does not
   change. *)

type t = Hextime_prelude.Minijson.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering ---------------------------------------------------------- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* JSON has no literal for non-finite numbers; emitting %g's "nan"/"inf"
   would make the document unparseable.  Encode them as the strings JSON
   tooling conventionally uses (they parse back as [Str], which callers
   that care can detect). *)
let render_number f =
  if Float.is_nan f then "\"NaN\""
  else if f = Float.infinity then "\"Infinity\""
  else if f = Float.neg_infinity then "\"-Infinity\""
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let render v =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make n ' ') in
  let rec go n = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (render_number f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (n + 2);
            go (n + 2) item)
          items;
        Buffer.add_char buf '\n';
        indent n;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (n + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (n + 2) item)
          fields;
        Buffer.add_char buf '\n';
        indent n;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Single-line rendering for line-oriented formats (JSONL): same escaping
   and number formatting as [render], no indentation, no trailing
   newline — a record must occupy exactly one line of the ledger. *)
let render_compact v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (render_number f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            go item)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some ('"' | '\\' | '/') ->
              Buffer.add_char buf s.[!pos];
              advance ();
              go ()
          | Some 'u' ->
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
              pos := !pos + 5;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let str = String.sub s start (!pos - start) in
    match float_of_string_opt str with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" str)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "minijson: %s at offset %d" msg at)
