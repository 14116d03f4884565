module Arch = Hextime_gpu.Arch
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Attribution = Hextime_obs.Attribution
module Minijson = Hextime_prelude.Minijson
module Durable = Hextime_obs.Durable

let schema = "hextime-serve-index-v2"

type entry = {
  e_key : string;
  e_arch : string;
  e_stencil : string;
  e_space : int array;
  e_time : int;
  e_config : Config.t;
  e_talg : float;
  e_components : Attribution.components;
}

let entry_of_answer (arch : Arch.t) (problem : Problem.t)
    (a : Advisor.answer) =
  {
    e_key = Advisor.request_key arch problem;
    e_arch = arch.Arch.name;
    e_stencil = problem.Problem.stencil.Stencil.name;
    e_space = Array.copy problem.Problem.space;
    e_time = problem.Problem.time;
    e_config = a.Advisor.a_config;
    e_talg = a.Advisor.a_talg;
    e_components = a.Advisor.a_components;
  }

let answer_of_entry e =
  {
    Advisor.a_config = e.e_config;
    a_talg = e.e_talg;
    a_components = e.e_components;
  }

(* --- JSON (de)serialisation ----------------------------------------------- *)

let num f = Minijson.Num f
let int_num i = num (float_of_int i)
let int_list xs = Minijson.List (List.map int_num (Array.to_list xs))

let config_to_json (c : Config.t) =
  Minijson.Obj
    [
      ("t_t", int_num c.Config.t_t);
      ("t_s", int_list c.Config.t_s);
      ("threads", int_list c.Config.threads);
    ]

let entry_to_json e =
  Minijson.Obj
    [
      ("key", Minijson.Str e.e_key);
      ("arch", Minijson.Str e.e_arch);
      ("stencil", Minijson.Str e.e_stencil);
      ("space", int_list e.e_space);
      ("time", int_num e.e_time);
      ("config", config_to_json e.e_config);
      ("talg", num e.e_talg);
      ("attribution", Attribution.components_to_json e.e_components);
    ]

(* --- the table ------------------------------------------------------------ *)

(* Each entry sits beside its fields rendered once, compact and without
   the braces, so a served answer splices these bytes instead of building
   and rendering the entry's tree per request.  The bytes live in the
   table rather than in [entry]: a [{ e with ... }] copy would carry stale
   ones. *)
type t = (string, entry * string) Hashtbl.t

let render_fields e =
  let s = Minijson.render_compact (entry_to_json e) in
  String.sub s 1 (String.length s - 2)

let create () : t = Hashtbl.create 64
let size (t : t) = Hashtbl.length t
let find_rendered (t : t) key = Hashtbl.find_opt t key

let find (t : t) key =
  match Hashtbl.find_opt t key with Some (e, _) -> Some e | None -> None

let add (t : t) e = Hashtbl.replace t e.e_key (e, render_fields e)

let entries (t : t) =
  Hashtbl.fold (fun _ (e, _) acc -> e :: acc) t []
  |> List.sort (fun a b -> String.compare a.e_key b.e_key)

let field name j = Minijson.member name j
let str name j = Option.bind (field name j) Minijson.string
let flt name j = Option.bind (field name j) Minijson.number

let int_field name j =
  Option.map int_of_float (Option.bind (field name j) Minijson.number)

let ints name j =
  match field name j with
  | Some (Minijson.List xs) ->
      let vals = List.filter_map Minijson.number xs in
      if List.length vals = List.length xs then
        Some (Array.of_list (List.map int_of_float vals))
      else None
  | _ -> None

let components_of_json j =
  let f name = Option.value ~default:0.0 (flt name j) in
  {
    Attribution.compute = f "compute";
    global_mem = f "global_mem";
    shared_mem = f "shared_mem";
    sync = f "sync";
    launch = f "launch";
    jitter = f "jitter";
  }

let entry_of_json j =
  match
    ( str "key" j,
      str "arch" j,
      str "stencil" j,
      ints "space" j,
      int_field "time" j,
      field "config" j,
      flt "talg" j,
      field "attribution" j )
  with
  | ( Some key,
      Some arch,
      Some stencil,
      Some space,
      Some time,
      Some cfg_j,
      Some talg,
      Some attr_j ) -> (
      match
        (int_field "t_t" cfg_j, ints "t_s" cfg_j, ints "threads" cfg_j)
      with
      | Some t_t, Some t_s, Some threads -> (
          match Config.make ~t_t ~t_s ~threads with
          | Error e -> Error (Printf.sprintf "index entry %s: %s" key e)
          | Ok config ->
              Ok
                {
                  e_key = key;
                  e_arch = arch;
                  e_stencil = stencil;
                  e_space = space;
                  e_time = time;
                  e_config = config;
                  e_talg = talg;
                  e_components = components_of_json attr_j;
                })
      | _ -> Error "index entry: malformed config")
  | _ -> Error "index entry: missing field"

(* --- the file ------------------------------------------------------------- *)

let header =
  Minijson.render_compact
    (Minijson.Obj
       [
         ("schema", Minijson.Str schema);
         ("code_version", Minijson.Str Advisor.code_version);
       ])
  ^ "\n"

(* An entry's line is its fields as [add] rendered them, in braces: the
   compact JSON of [entry_to_json], rendered once per entry. *)
let add_line b fields =
  Buffer.add_char b '{';
  Buffer.add_string b fields;
  Buffer.add_string b "}\n"

let save (t : t) ~path =
  let b = Buffer.create 4096 in
  Buffer.add_string b header;
  Hashtbl.fold (fun key (_, fields) acc -> (key, fields) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (_, fields) -> add_line b fields);
  Durable.replace ~path (Buffer.contents b)

(* A file shorter than the header line holds no entry, at most a header
   cut short; it is replaced, header first, rather than appended to. *)
let append (t : t) ~path entries =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      add_line b
        (match Hashtbl.find_opt t e.e_key with
        | Some (_, fields) -> fields
        | None -> render_fields e))
    entries;
  match Unix.stat path with
  | { Unix.st_size; _ } when st_size >= String.length header ->
      Durable.append ~path (Buffer.contents b)
  | _ | (exception Unix.Unix_error _) ->
      Durable.replace ~path (header ^ Buffer.contents b)

type loaded = { entry_lines : int; torn_lines : int }

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      (* a directory opens, then fails to read; a file cut shorter while
         it is read ends early *)
      let text =
        match really_input_string ic (in_channel_length ic) with
        | text -> Ok text
        | exception Sys_error e -> Error e
        | exception End_of_file -> Error (path ^ ": shorter than its length")
      in
      close_in_noerr ic;
      text

let check_header path first =
  let bad fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "index %s: %s" path m)) fmt
  in
  match Minijson.parse first with
  | Error _ -> bad "the first line is not a %s header" schema
  | Ok j -> (
      match (str "schema" j, str "code_version" j) with
      | Some s, _ when s <> schema ->
          bad "unknown schema %S (expected %S)" s schema
      | _, Some v when v <> Advisor.code_version ->
          (* recommendations from older advisor semantics must not be
             served *)
          bad "stale code version %S (current %S)" v Advisor.code_version
      | Some _, Some _ -> Ok ()
      | _ -> bad "the first line names no schema and code version")

(* Every line after the header is one entry, applied with [add]: a key's
   later line replaces its earlier one.  A line that does not parse, a
   torn last line, is skipped and counted. *)
let replay path text =
  let t = create () in
  let lines = ref 0 and torn = ref 0 in
  let entry line =
    if line <> "" then
      match Result.bind (Minijson.parse line) entry_of_json with
      | Ok e ->
          add t e;
          incr lines
      | Error _ -> incr torn
  in
  let loaded () = Ok (t, { entry_lines = !lines; torn_lines = !torn }) in
  match String.split_on_char '\n' text with
  | [ first ]
    when String.length first < String.length header - 1
         && String.starts_with ~prefix:first header ->
      (* empty, or a header cut short: the file's first write was torn *)
      if first <> "" then incr torn;
      loaded ()
  | first :: rest ->
      Result.bind (check_header path first) (fun () ->
          List.iter entry rest;
          loaded ())
  | [] -> loaded ()

let load ~path =
  Result.bind
    (if Sys.file_exists path then read_file path else Ok "")
    (replay path)
