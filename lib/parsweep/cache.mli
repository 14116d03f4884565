(** Persistent on-disk memoisation of sweep results.

    Re-running a sweep — across CI runs, across [hextime] invocations, or
    after a crash mid-campaign — should not re-simulate configurations that
    have already been priced.  Each completed point is persisted as one
    small file under a cache directory, written atomically (temp file +
    rename) so concurrent sweeps sharing a directory never observe a
    half-written entry.  Because entries are written as results complete,
    the cache doubles as the sweep checkpoint: killing a campaign and
    restarting it skips every point that finished before the kill.

    Entries are keyed by an arbitrary string; callers are expected to build
    keys that determine the value completely — for sweep results that is a
    code-version tag plus a digest of the point's pricing inputs (see
    {!Hextime_harness.Sweep.code_version}), so pricing-neutral edits stay
    warm hits.  The key is stored inside the
    entry and verified on read, so filename-hash collisions degrade to
    cache misses, never to wrong results.

    Values cross the filesystem via [Marshal]; {!get} is therefore only
    type-safe when every key namespace is read and written at a single
    value type.  Prefix keys with the value kind (["point|"], ["measure|"],
    ["lint|"]) and a code-version tag, and bump the tag whenever the value
    type or the semantics producing it change. *)

type t

val default_dir : unit -> string
(** [$HEXTIME_CACHE_DIR] if set and non-empty, else
    [$XDG_CACHE_HOME/hextime], else [$HOME/.cache/hextime], else a
    directory under the system temp dir. *)

val create : ?dir:string -> unit -> t
(** Open (creating directories as needed) a cache rooted at [dir],
    defaulting to {!default_dir}.  Hit/miss/write counters start at zero.
    Stale write-temp files (["*.tmp.<pid>"] left behind by a process
    killed between write and rename — SIGKILL, the OOM killer) are swept
    here: a temp whose pid is no longer alive is removed; temps of live
    writers are left alone. *)

val dir : t -> string

val entry_path : t -> string -> string
(** [entry_path t key] is the file a [put] of [key] renames into place —
    exposed so tests can fabricate filename-hash collisions and damaged
    entries without reverse-engineering the hash. *)

val get : t -> key:string -> 'a option
(** Look the key up; [None] on absence, key mismatch (hash collision) or an
    unreadable/corrupt entry — a damaged cache can cost time, never
    correctness.  Counts one hit or one miss. *)

val put : t -> key:string -> 'a -> unit
(** Persist atomically.  I/O failures are swallowed (the sweep result is
    already in memory; losing a cache write must not fail a campaign). *)

val hits : t -> int
val misses : t -> int
val writes : t -> int
