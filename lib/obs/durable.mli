(** The one writer behind every on-disk store: the serve index snapshot
    and its journal, and the hexwatch ledger.

    Both functions check every [write] and every [close], so a full disk
    or a file-size limit comes back as [Error] rather than as a file that
    silently holds less than was asked for. *)

val replace : path:string -> string -> (unit, string) result
(** Replace [path] with exactly these bytes: write them to
    [path ^ ".tmp.<pid>"], [fsync] it, close it, rename it over [path],
    then [fsync] the directory so the rename itself survives a power cut.
    A reader sees the old file or the new one, never a mixture.  On any
    failure the tmp file is removed and [path] is left as it was. *)

val append : path:string -> string -> (unit, string) result
(** Append these bytes to [path] in one [write], creating the file if
    missing.  If a regular file does not end in a newline (an earlier
    append was cut), one is written first, in the same [write]: the torn
    line stays one bad line and the appended record survives.  No
    [fsync]: an appended line survives the process being killed, not a
    power cut. *)
