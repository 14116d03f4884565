module Det_hash = Hextime_prelude.Det_hash
module Metrics = Hextime_obs.Metrics

(* the record fields below are per-cache-instance; these registry counters
   are the process-wide view the metrics snapshot reports *)
let hit_counter = Metrics.counter "cache.hit"
let miss_counter = Metrics.counter "cache.miss"
let write_counter = Metrics.counter "cache.write"

type t = {
  dir : string;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
}

let default_dir () =
  match Sys.getenv_opt "HEXTIME_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "hextime"
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              Filename.concat (Filename.concat h ".cache") "hextime"
          | _ -> Filename.concat (Filename.get_temp_dir_name ()) "hextime-cache"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [put] writes through "<entry>.tmp.<pid>" then renames.  A process that is
   killed between the two (SIGKILL, the OOM killer) leaks its temp file
   forever — no code path ever looked at them again.  Sweep them when a
   cache is opened: a temp file whose embedded pid no longer exists
   belongs to a dead writer and can never be renamed, so it is garbage.
   [kill pid 0] probes existence without signalling; EPERM means the pid
   is alive but owned by someone else, so only ESRCH (and a pid that
   doesn't parse) condemns the file.
   A racing live writer is never touched, and losing the race to remove a
   file some other opener already swept is fine. *)
let sweep_stale_tmp dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.iter
    (fun name ->
      match String.rindex_opt name '.' with
      | None -> ()
      | Some dot ->
          let stem = String.sub name 0 dot in
          let suffix = String.sub name (dot + 1) (String.length name - dot - 1) in
          if Filename.check_suffix stem ".tmp" then begin
            let dead =
              match int_of_string_opt suffix with
              | None -> true (* ".tmp.garbage": no live writer can own it *)
              | Some pid when pid <= 0 -> true
              | Some pid -> (
                  match Unix.kill pid 0 with
                  | () -> false
                  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
                  | exception Unix.Unix_error (_, _, _) -> false)
            in
            if dead then
              try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()
          end)
    entries

let create ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  mkdir_p dir;
  sweep_stale_tmp dir;
  { dir; hits = 0; misses = 0; writes = 0 }

let dir t = t.dir

let path_of t key =
  let h =
    Det_hash.to_int64 (Det_hash.mix_string (Det_hash.create "hextime-cache") key)
  in
  Filename.concat t.dir (Printf.sprintf "%016Lx.bin" h)

let entry_path = path_of

let get (type a) t ~key : a option =
  match open_in_bin (path_of t key) with
  | exception Sys_error _ ->
      t.misses <- t.misses + 1;
      Metrics.incr miss_counter;
      None
  | ic ->
      (* Only the failures a damaged entry can actually produce are a miss:
         Marshal raises [Failure] on corrupt bytes, [End_of_file] on
         truncation, and the read can hit [Sys_error].  The old catch-all
         also swallowed [Out_of_memory] and [Stack_overflow], silently
         re-pricing a point the machine was too loaded to deserialise —
         those must propagate. *)
      let entry : (string * a) option =
        try Some (Marshal.from_channel ic)
        with Failure _ | End_of_file | Sys_error _ -> None
      in
      close_in_noerr ic;
      (match entry with
      | Some (k, v) when String.equal k key ->
          t.hits <- t.hits + 1;
          Metrics.incr hit_counter;
          Some v
      | Some _ | None ->
          t.misses <- t.misses + 1;
          Metrics.incr miss_counter;
          None)

let put t ~key v =
  let path = path_of t key in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
      let written =
        try
          Marshal.to_channel oc (key, v) [];
          true
        with _ -> false
      in
      close_out_noerr oc;
      if written then begin
        match Sys.rename tmp path with
        | () ->
            t.writes <- t.writes + 1;
            Metrics.incr write_counter
        | exception Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())
      end
      else try Sys.remove tmp with Sys_error _ -> ()

let hits t = t.hits
let misses t = t.misses
let writes t = t.writes
