(** Crash-point enumeration for the durability stack, per seed.

    Two scenarios, both on the in-memory crash-simulating filesystem
    ({!Ace_util.Io.Mem}) and both built on {!Ace_harness.Crash}'s
    crash-point enumeration, recovery rule and report:

    - {e snapshot}: a checkpointed run's snapshot chain
      ({!Ace_harness.Crash.storage}).
    - {e spool}: the full serve-job lifecycle (admit spec, checkpointed
      run, publish result, clear snapshots).  Recovery is a simulated
      daemon restart ([Spool.ensure_dir] + [Spool.scan] +
      {!Ace_harness.Crash.recover} + settle).  Invariants: a job
      acknowledged (spec renamed into place) is never lost, never
      duplicated, never spuriously quarantined, and its result is
      byte-identical to an uninterrupted run.

    Deterministic: seeds and operation order fully determine the matrix. *)

val run_matrix :
  ?workload:string ->
  ?scale:float ->
  ?checkpoint_every:int ->
  seeds:int list ->
  unit ->
  Ace_harness.Crash.report list
(** Run both scenarios for every seed (defaults: jess at scale 0.05,
    checkpointing every 2 M instructions — small enough that each crash
    point's rerun takes milliseconds, large enough that every run rotates
    snapshots).  Purely in-memory; touches no real files.  Render the
    result with [Ace_harness.Crash.render "torture"].
    @raise Invalid_argument on an unknown [workload]. *)
