let describe fn path e =
  Printf.sprintf "%s %s: %s" fn path (Unix.error_message e)

(* [Unix.write_substring] retries a partial write itself and raises on a
   failed one (a full disk, a file-size limit); the loop covers the count
   it may still return short. *)
let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

(* Run [f fd], then close [fd]; a failed close is a failed write, since
   it can carry the error of the last one. *)
let with_fd fd f =
  match f fd with
  | () -> Unix.close fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* A terminal, a pipe or a device ([-o /dev/stdout]) has no contents to
   keep, and a rename over it would replace the device node itself. *)
let is_special path =
  match Unix.stat path with
  | { Unix.st_kind = S_CHR | S_BLK | S_FIFO | S_SOCK; _ } -> true
  | _ | (exception Unix.Unix_error _) -> false

let write_in_place ~path bytes =
  match
    with_fd
      (Unix.openfile path [ O_WRONLY; O_CLOEXEC ] 0)
      (fun fd -> write_all fd bytes)
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, fn, _) -> Error (describe fn path e)

let fsync_path p =
  with_fd (Unix.openfile p [ O_RDONLY; O_CLOEXEC ] 0) Unix.fsync

(* The directory entry of [path], so that a rename or a creation survives
   a power cut too. *)
let sync_dir path =
  let dir = Filename.dirname path in
  match fsync_path dir with
  | () -> Ok ()
  | exception Unix.Unix_error (e, fn, _) -> Error (describe fn dir e)

let replace_file ~path bytes =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match
    with_fd
      (Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644)
      (fun fd ->
        write_all fd bytes;
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | exception Unix.Unix_error (e, fn, _) ->
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      Error (describe fn tmp e)
  | () -> sync_dir path

(* Through a symlink the rename replaces its target, as a plain write to
   the path would, and the link stays. *)
let resolve path =
  match Unix.lstat path with
  | { Unix.st_kind = S_LNK; _ } -> (
      try Unix.realpath path with Unix.Unix_error _ -> path)
  | _ | (exception Unix.Unix_error _) -> path

let replace ~path bytes =
  if is_special path then write_in_place ~path bytes
  else replace_file ~path:(resolve path) bytes

(* Does [fd] end in a torn line?  Only a regular file has a last byte to
   read: a device or a pipe is never torn. *)
let torn_tail fd =
  match Unix.fstat fd with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } when st_size > 0 ->
      ignore (Unix.lseek fd (st_size - 1) Unix.SEEK_SET : int);
      let last = Bytes.create 1 in
      Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'
  | _ -> false

let append ~path bytes =
  match
    with_fd
      (Unix.openfile path [ O_RDWR; O_APPEND; O_CREAT; O_CLOEXEC ] 0o644)
      (fun fd -> write_all fd (if torn_tail fd then "\n" ^ bytes else bytes))
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, fn, _) -> Error (describe fn path e)

let sync ~path =
  let path = resolve path in
  match Unix.stat path with
  | { Unix.st_kind = S_REG; _ } -> (
      match fsync_path path with
      | () -> sync_dir path
      | exception Unix.Unix_error (e, fn, _) -> Error (describe fn path e))
  | _ | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> Ok ()
  | exception Unix.Unix_error (e, fn, _) -> Error (describe fn path e)
