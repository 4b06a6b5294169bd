(** Cleanup guards for scratch files and directories.

    Snapshot files come in families ([path], the rotated [path.1] and the
    in-flight [path.tmp]); anything that owns such a path must remove the
    whole family or leak snapshots.  These combinators centralize that
    discipline; the serve daemon's spool uses them. *)

val snapshot_family : string -> string list
(** Every file [Ace_ckpt.Snapshot.write] can leave behind for [path]:
    [path], [path ^ ".1"] and [path ^ ".tmp"]. *)

val remove_existing : ?io:Io.t -> string list -> unit
(** Remove each listed file that exists; removal errors (e.g. a path
    deleted concurrently, or a transient {!Io.Io_error}) are ignored
    per-path — one failing unlink never abandons the rest of the list. *)

val with_temp_dir : ?io:Io.t -> ?prefix:string -> (string -> 'a) -> 'a
(** [with_temp_dir f] creates a fresh private directory under the temp dir,
    runs [f dir], and removes the directory and every file directly inside
    it (no recursion into subdirectories) whether [f] returns or raises.
    Cleanup is fault-tolerant per entry: a failing unlink skips only that
    entry, never the remainder. *)
