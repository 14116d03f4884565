module Minijson = Hextime_prelude.Minijson

(* A frame is a 4-byte big-endian payload length followed by that many
   bytes of compact JSON.  Length-prefixing keeps the protocol trivially
   incremental — the server never has to find a message boundary inside a
   byte stream — and the cap below bounds what a confused or hostile
   client can make the server allocate. *)
let max_frame = 1 lsl 20

let check_length n =
  if n > max_frame then invalid_arg "Proto.write_frame: frame too large"

(* Header and payload go out in one [write]: a reader woken by a lone
   header would only block again waiting for the payload, and on a shared
   CPU that is an extra context switch per frame. *)
let write_all fd frame =
  let len = Bytes.length frame in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd frame !off (len - !off)
  done

let write_frame fd json =
  let payload = Minijson.render_compact json in
  let n = String.length payload in
  check_length n;
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string payload 0 frame 4 n;
  write_all fd frame

(* [Ok None] is a clean end-of-stream (the client closed between frames);
   anything malformed — short header, oversized length, truncated payload,
   unparseable JSON — is an [Error]. *)
let read_frame fd =
  let read_exactly n =
    let b = Bytes.create n in
    let off = ref 0 in
    let eof = ref false in
    while (not !eof) && !off < n do
      match Unix.read fd b !off (n - !off) with
      | 0 -> eof := true
      | k -> off := !off + k
    done;
    if !eof then None else Some b
  in
  match read_exactly 4 with
  | None -> Ok None
  | Some header -> (
      let n =
        (Bytes.get_uint8 header 0 lsl 24)
        lor (Bytes.get_uint8 header 1 lsl 16)
        lor (Bytes.get_uint8 header 2 lsl 8)
        lor Bytes.get_uint8 header 3
      in
      if n > max_frame then
        Error (Printf.sprintf "frame length %d exceeds limit %d" n max_frame)
      else
        match read_exactly n with
        | None -> Error "truncated frame"
        | Some payload -> (
            match Minijson.parse (Bytes.unsafe_to_string payload) with
            | Error e -> Error (Printf.sprintf "bad frame payload: %s" e)
            | Ok json -> Ok (Some json)))

(* --- requests -------------------------------------------------------------- *)

type request =
  | Ask of { arch : string; stencil : string; space : int array; time : int }
  | Stats
  | Shutdown

let ints_to_json xs =
  Minijson.List
    (List.map (fun i -> Minijson.Num (float_of_int i)) (Array.to_list xs))

let request_to_json = function
  | Ask { arch; stencil; space; time } ->
      Minijson.Obj
        [
          ("op", Minijson.Str "ask");
          ("arch", Minijson.Str arch);
          ("stencil", Minijson.Str stencil);
          ("space", ints_to_json space);
          ("time", Minijson.Num (float_of_int time));
        ]
  | Stats -> Minijson.Obj [ ("op", Minijson.Str "stats") ]
  | Shutdown -> Minijson.Obj [ ("op", Minijson.Str "shutdown") ]

let str name j = Option.bind (Minijson.member name j) Minijson.string

let ints name j =
  match Minijson.member name j with
  | Some (Minijson.List xs) ->
      let vals = List.filter_map Minijson.number xs in
      if List.length vals = List.length xs then
        Some (Array.of_list (List.map int_of_float vals))
      else None
  | _ -> None

let request_of_json j =
  match str "op" j with
  | Some "ask" -> (
      match
        ( str "arch" j,
          str "stencil" j,
          ints "space" j,
          Option.bind (Minijson.member "time" j) Minijson.number )
      with
      | Some arch, Some stencil, Some space, Some time ->
          Ok (Ask { arch; stencil; space; time = int_of_float time })
      | _ -> Error "ask: requires arch, stencil, space, time")
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "request has no op field"

(* --- replies --------------------------------------------------------------- *)

type source = Warm | Cold

let source_to_string = function Warm -> "warm" | Cold -> "cold"

let source_of_string = function
  | "warm" -> Some Warm
  | "cold" -> Some Cold
  | _ -> None

type answer = {
  source : source;
  entry : Index.entry;
  latency_us : float;
  req_id : string;
  server : (string * float) list;
}

type reply =
  | Answer of answer
  | Stats_reply of { metrics : Minijson.t; server : (string * float) list }
  | Error_reply of string

let server_to_json = function
  | [] -> []
  | kvs ->
      [
        ( "server",
          Minijson.Obj (List.map (fun (k, v) -> (k, Minijson.Num v)) kvs) );
      ]

let server_of_json j =
  match Minijson.member "server" j with
  | Some (Minijson.Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          match Minijson.number v with Some f -> Some (k, f) | None -> None)
        fields
  | _ -> []

let reply_to_json = function
  | Answer { source; entry; latency_us; req_id; server } ->
      let fields =
        match Index.entry_to_json entry with
        | Minijson.Obj fs -> fs
        | _ -> []
      in
      Minijson.Obj
        (("status", Minijson.Str "ok")
        :: ("source", Minijson.Str (source_to_string source))
        :: ("latency_us", Minijson.Num latency_us)
        :: ((if req_id = "" then []
             else [ ("req_id", Minijson.Str req_id) ])
           @ fields @ server_to_json server))
  | Stats_reply { metrics; server } ->
      Minijson.Obj
        (("status", Minijson.Str "ok")
        :: ("metrics", metrics)
        :: server_to_json server)
  | Error_reply msg ->
      Minijson.Obj
        [ ("status", Minijson.Str "error"); ("message", Minijson.Str msg) ]

(* [reply_to_json (Answer a)] rendered by hand: the fixed keys, the
   per-request numbers and strings, and the entry's pre-rendered fields in
   the order the tree puts them, behind a header patched in last. *)
let write_answer fd { source; entry = _; latency_us; req_id; server } ~fields =
  let buf = Buffer.create (String.length fields + 192) in
  Buffer.add_string buf "\000\000\000\000{\"status\":\"ok\",\"source\":\"";
  Buffer.add_string buf (source_to_string source);
  Buffer.add_string buf "\",\"latency_us\":";
  Minijson.add_number buf latency_us;
  if req_id <> "" then begin
    Buffer.add_string buf ",\"req_id\":\"";
    Minijson.add_escaped buf req_id;
    Buffer.add_char buf '"'
  end;
  Buffer.add_char buf ',';
  Buffer.add_string buf fields;
  (match server with
  | [] -> ()
  | kvs ->
      Buffer.add_string buf ",\"server\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Minijson.add_escaped buf k;
          Buffer.add_string buf "\":";
          Minijson.add_number buf v)
        kvs;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  let frame = Buffer.to_bytes buf in
  let n = Bytes.length frame - 4 in
  check_length n;
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  write_all fd frame

let reply_of_json j =
  match str "status" j with
  | Some "error" ->
      Ok
        (Error_reply
           (Option.value ~default:"unknown error" (str "message" j)))
  | Some "ok" -> (
      match Minijson.member "metrics" j with
      | Some metrics -> Ok (Stats_reply { metrics; server = server_of_json j })
      | None -> (
          match
            ( Option.bind (str "source" j) source_of_string,
              Index.entry_of_json j,
              Option.bind (Minijson.member "latency_us" j) Minijson.number )
          with
          | Some source, Ok entry, Some latency_us ->
              Ok
                (Answer
                   {
                     source;
                     entry;
                     latency_us;
                     req_id = Option.value ~default:"" (str "req_id" j);
                     server = server_of_json j;
                   })
          | _, Error e, _ -> Error e
          | _ -> Error "answer: missing source or latency_us"))
  | Some s -> Error (Printf.sprintf "unknown status %S" s)
  | None -> Error "reply has no status field"
