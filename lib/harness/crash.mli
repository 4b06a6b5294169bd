(** The crash harness: kill or crash a checkpointed run, recover it, and
    check the recovered run against an uninterrupted one.

    Every model rests on the same invariant (DESIGN.md §Checkpointing):
    resuming from any snapshot and running to completion yields a final
    result bit-identical to the uninterrupted run's.  The one excluded
    counter is [Faults.stats.snapshots_corrupted] — storage-channel
    bookkeeping depends on how many snapshots were actually written, which
    an interrupted run legitimately changes.

    Each model runs on fresh in-memory filesystems ({!Ace_util.Io.Mem}), so
    none touches real files, and recovery always follows one rule
    ({!recover}): resume the newest snapshot, else its [.1] rotation, else
    restart from scratch.  Deterministic: the job's seed fully determines
    every kill point, crash point and report. *)

type job = {
  workload : Ace_workloads.Workload.t;
      (** Must be registered in [Ace_workloads.Specjvm] (resume rebuilds it
          by name). *)
  scheme : Scheme.t;
  scale : float;
  seed : int;
  fault_rate : float option;  (** Register and storage faults, as in {!Run}. *)
  checkpoint_every : int;
}
(** One checkpointed run, as {!Run.run_checkpointed} takes it. *)

val start :
  ?kill_after:int ->
  ?on_snapshot:(Ace_ckpt.Snapshot.t -> unit) ->
  io:Ace_util.Io.t ->
  path:string ->
  job ->
  Run.ckpt_outcome
(** Run [job] from the beginning, checkpointing to [path] through [io]. *)

type report = {
  scenario : string;  (** The model or scenario that produced it. *)
  seed : int;
  mutable points : int;
      (** Crash or kill points exercised (snapshots replayed, for
          {!replay}). *)
  mutable torn : int;  (** ...of which torn-write variants. *)
  mutable primary : int;  (** Recoveries resuming the newest snapshot. *)
  mutable fallback : int;  (** Recoveries falling back to the rotation. *)
  mutable scratch : int;  (** Recoveries restarting from nothing. *)
  mutable absent : int;
      (** Points where the crash predates acknowledgement and the job is
          legitimately gone (the spool scenario only). *)
  mutable corrupted : int;
      (** Snapshots damaged by injected storage faults in the surviving run
          ({!kill} only). *)
  mutable violations : string list;  (** Empty on a clean run. *)
}

val report : string -> int -> report
(** [report scenario seed]: all counts zero. *)

val violation : report -> ('a, unit, string, unit) format4 -> 'a
(** Record a violation, prefixed with the report's scenario and seed. *)

val recover :
  ?kill_after:int ->
  io:Ace_util.Io.t ->
  path:string ->
  report ->
  job ->
  Run.ckpt_outcome
(** Resume [job] from [path], falling back to [path.1] when the newest
    snapshot is torn or fails its CRC, and restarting it from scratch
    ({!start}) when neither generation is usable.  Counts which of the
    three served in [primary], [fallback] or [scratch]. *)

(** {2 Crash-point enumeration} *)

val record : (Ace_util.Io.t -> unit) -> Ace_util.Io.op array
(** Every mutating filesystem operation one run of the workflow performs,
    in order, on a fresh filesystem. *)

val crash_points :
  report ->
  Ace_util.Io.op array ->
  (Ace_util.Io.t -> unit) ->
  (int -> string -> Ace_util.Io.t -> unit) ->
  unit
(** [crash_points r ops run check] reruns [run] on a fresh filesystem once
    per crash point: each operation index of [ops] under [`Drop]
    (un-fsynced data lost) and [`Keep] (everything flushed), plus a
    torn-write variant for points landing on a write.  The run dies there
    ({!Ace_util.Io.crash_at}), the filesystem crashes, and
    [check k where io] recovers on it; [where] describes the point.  A run
    that does not crash, or a [check] that raises, is a violation. *)

(** {2 Crash models} *)

val replay : job -> report
(** Determinism oracle: run once to completion collecting every snapshot,
    then replay from each one and compare against the uninterrupted result.
    One point per snapshot; each divergent replay is a violation. *)

val kill : ?cycles:int -> job -> report
(** Process kills: repeatedly kill the run at seeded points that only move
    forward and {!recover} it, for up to [cycles] (default 20) kill/resume
    cycles; then recover the survivor to completion and compare against an
    uninterrupted run.  Under [fault_rate], corrupted snapshots exercise
    the CRC check and the [.1] fallback; if both generations are bad the
    run restarts from scratch, which must converge to the same result.
    [points] counts the kills. *)

val storage : job -> report
(** Storage crashes, reported as scenario ["snapshot"]: every mutating
    filesystem operation of the run's snapshot chain × drop/keep/torn
    ({!crash_points}), each followed by {!recover}.  Also a violation: no
    point ever resuming from a snapshot. *)

(** {2 Reports} *)

val total_points : report list -> int
val total_violations : report list -> int

val render : string -> report list -> string
(** [render name reports]: a per-report table with a totals row, one line
    per violation, and a final ["name: N crash points, V violations"]
    summary line. *)
