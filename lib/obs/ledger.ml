module Minijson = Hextime_prelude.Minijson

type entry = {
  schema : int;
  kind : string;
  time_unix : float;
  code_version : string;
  git_rev : string;
  labels : (string * string) list;
  metrics : (string * float) list;
  groups : (string * (string * float) list) list;
  snapshot : Minijson.t option;
}

let schema_version = 1

(* One subprocess per process lifetime: the rev cannot change under us, and
   ledger appends must stay cheap enough to hang off every CLI run. *)
let git_rev =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some rev -> rev
    | None ->
        let rev =
          match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
          | exception _ -> ""
          | ic ->
              let line = try input_line ic with End_of_file | Sys_error _ -> "" in
              let status = try Unix.close_process_in ic with _ -> Unix.WEXITED 1 in
              (match status with Unix.WEXITED 0 -> String.trim line | _ -> "")
        in
        memo := Some rev;
        rev

let make ?(labels = []) ?(metrics = []) ?(groups = []) ?snapshot ~kind
    ~code_version () =
  {
    schema = schema_version;
    kind;
    time_unix = Unix.time ();
    code_version;
    git_rev = git_rev ();
    labels;
    metrics;
    groups;
    snapshot;
  }

let default_path () =
  match Sys.getenv_opt "HEXTIME_LEDGER" with
  | Some p when p <> "" -> p
  | _ -> "hexwatch-ledger.jsonl"

let str_fields kvs = List.map (fun (k, v) -> (k, Minijson.Str v)) kvs
let num_fields kvs = List.map (fun (k, v) -> (k, Minijson.Num v)) kvs

let to_json e =
  Minijson.Obj
    ([
       ("schema", Minijson.Str "hexwatch-ledger");
       ("version", Minijson.Num (float_of_int e.schema));
       ("kind", Minijson.Str e.kind);
       ("time_unix", Minijson.Num e.time_unix);
       ("code_version", Minijson.Str e.code_version);
       ("git_rev", Minijson.Str e.git_rev);
       ("labels", Minijson.Obj (str_fields e.labels));
       ("metrics", Minijson.Obj (num_fields e.metrics));
       ( "groups",
         Minijson.Obj
           (List.map
              (fun (name, kvs) -> (name, Minijson.Obj (num_fields kvs)))
              e.groups) );
     ]
    @ match e.snapshot with None -> [] | Some s -> [ ("obs_metrics", s) ])

let of_json json =
  let str name = Option.bind (Minijson.member name json) Minijson.string in
  let num name = Option.bind (Minijson.member name json) Minijson.number in
  let obj_num_fields = function
    | Some (Minijson.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match Minijson.number v with Some f -> Some (k, f) | None -> None)
          fields
    | _ -> []
  in
  match (str "schema", num "version", str "kind") with
  | Some "hexwatch-ledger", Some version, Some kind ->
      Ok
        {
          schema = int_of_float version;
          kind;
          time_unix = Option.value ~default:0.0 (num "time_unix");
          code_version = Option.value ~default:"" (str "code_version");
          git_rev = Option.value ~default:"" (str "git_rev");
          labels =
            (match Minijson.member "labels" json with
            | Some (Minijson.Obj fields) ->
                List.filter_map
                  (fun (k, v) ->
                    match Minijson.string v with
                    | Some s -> Some (k, s)
                    | None -> None)
                  fields
            | _ -> []);
          metrics = obj_num_fields (Minijson.member "metrics" json);
          groups =
            (match Minijson.member "groups" json with
            | Some (Minijson.Obj fields) ->
                List.map
                  (fun (name, v) -> (name, obj_num_fields (Some v)))
                  fields
            | _ -> []);
          snapshot = Minijson.member "obs_metrics" json;
        }
  | _ -> Error "not a hexwatch ledger record"

let append ~path e =
  Durable.append ~path (Minijson.render_compact (to_json e) ^ "\n")

type loaded = {
  entries : entry list;
  corrupt_lines : int;
  unknown_schema : int;
}

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let entries = ref [] in
      let corrupt = ref 0 in
      let unknown = ref 0 in
      (try
         while true do
           match input_line ic with
           | "" -> ()
           | line -> (
               match Minijson.parse line with
               | Error _ -> incr corrupt
               | Ok json -> (
                   match of_json json with
                   | Error _ -> incr corrupt
                   | Ok e ->
                       if e.schema = schema_version then
                         entries := e :: !entries
                       else incr unknown))
         done
       with End_of_file -> ());
      close_in_noerr ic;
      Ok
        {
          entries = List.rev !entries;
          corrupt_lines = !corrupt;
          unknown_schema = !unknown;
        }

let filter ?kind ?label entries =
  List.filter
    (fun e ->
      (match kind with None -> true | Some k -> e.kind = k)
      && match label with None -> true | Some kv -> List.mem kv e.labels)
    entries

let latest n entries =
  let len = List.length entries in
  if len <= n then entries
  else List.filteri (fun i _ -> i >= len - n) entries

let metric e name = List.assoc_opt name e.metrics

let group_metric e ~group name =
  Option.bind (List.assoc_opt group e.groups) (List.assoc_opt name)

(* --- lifecycle: rotation and compaction ------------------------------------ *)

(* Age is judged from the ledger's own first record, not the file mtime:
   a freshly checked-out repository must not rotate a young ledger just
   because git set the timestamps. *)
let first_entry_time path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | "" -> scan ()
        | line -> (
            match Minijson.parse line with
            | Error _ -> scan ()
            | Ok json -> (
                match of_json json with
                | Error _ -> scan ()
                | Ok e -> Some e.time_unix))
      in
      let r = scan () in
      close_in_noerr ic;
      r

let rotation_stamp t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let rotate ~path ?max_bytes ?max_age_s ?now () =
  if not (Sys.file_exists path) then Ok None
  else
    let now = match now with Some t -> t | None -> Unix.time () in
    let size =
      match Unix.stat path with
      | { Unix.st_size; _ } -> st_size
      | exception Unix.Unix_error _ -> 0
    in
    let too_big =
      match max_bytes with Some b -> size > b | None -> false
    in
    let too_old =
      match max_age_s with
      | None -> false
      | Some a -> (
          match first_entry_time path with
          | None -> false
          | Some t0 -> now -. t0 > a)
    in
    if not (too_big || too_old) then Ok None
    else begin
      let base = path ^ "." ^ rotation_stamp now in
      let rec fresh dest n =
        if Sys.file_exists dest then fresh (Printf.sprintf "%s-%d" base n) (n + 1)
        else dest
      in
      let dest = fresh base 1 in
      match Sys.rename path dest with
      | () -> Ok (Some dest)
      | exception Sys_error msg -> Error msg
    end

(* Identity of a record for compaction: its kind plus every label except
   the per-record ones (req_id is unique per request, so keeping it would
   make every audit its own key and compaction a no-op). *)
let compaction_key ?(drop_labels = [ "req_id" ]) e =
  let labels =
    List.filter (fun (k, _) -> not (List.mem k drop_labels)) e.labels
  in
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  e.kind ^ "|"
  ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let compact ~path ?drop_labels () =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in_noerr ic;
      let lines = Array.of_list (List.rev !lines) in
      (* classify each line: Some key -> compactable entry; None -> kept
         verbatim (unknown schema we cannot re-render, or blank); corrupt
         lines are dropped outright *)
      let keep = Array.make (Array.length lines) false in
      let last : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let dropped = ref 0 in
      Array.iteri
        (fun i line ->
          if line = "" then ()
          else
            match Minijson.parse line with
            | Error _ -> incr dropped
            | Ok json -> (
                match of_json json with
                | Error _ -> incr dropped
                | Ok e ->
                    if e.schema <> schema_version then keep.(i) <- true
                    else begin
                      let key = compaction_key ?drop_labels e in
                      (match Hashtbl.find_opt last key with
                      | Some j ->
                          keep.(j) <- false;
                          incr dropped
                      | None -> ());
                      Hashtbl.replace last key i;
                      keep.(i) <- true
                    end))
        lines;
      let kept = ref 0 in
      let out = Buffer.create 4096 in
      Array.iteri
        (fun i line ->
          if keep.(i) then begin
            incr kept;
            Buffer.add_string out line;
            Buffer.add_char out '\n'
          end)
        lines;
      (* atomic swap: readers see the old or the new ledger, never a
         half-written one *)
      Result.map
        (fun () -> (!kept, !dropped))
        (Durable.replace ~path (Buffer.contents out))
