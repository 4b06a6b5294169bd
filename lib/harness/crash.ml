module Io = Ace_util.Io
module Mem = Ace_util.Io.Mem
module Rng = Ace_util.Rng
module Table = Ace_util.Table
module Faults = Ace_faults.Faults

(* Storage-channel bookkeeping sits outside the deterministic envelope: an
   interrupted run writes a different number of snapshots than the
   uninterrupted one, so its corruption counter legitimately differs.
   Everything else in the result must be bit-identical. *)
let normalize (r : Run.result) =
  {
    r with
    Run.fault_stats =
      Option.map
        (fun s -> { s with Faults.snapshots_corrupted = 0 })
        r.Run.fault_stats;
  }

(* Polymorphic [compare] rather than [(=)]: it treats NaN as equal to
   itself, and a CoV over an empty population is NaN. *)
let results_match a b = Stdlib.compare (normalize a) (normalize b) = 0

type job = {
  workload : Ace_workloads.Workload.t;
  scheme : Scheme.t;
  scale : float;
  seed : int;
  fault_rate : float option;
  checkpoint_every : int;
}

let start ?kill_after ?on_snapshot ~io ~path j =
  Run.run_checkpointed ~io ~scale:j.scale ~seed:j.seed ?fault_rate:j.fault_rate
    ?kill_after ?on_snapshot ~checkpoint_every:j.checkpoint_every ~path
    j.workload j.scheme

let completed = function
  | Run.Completed r -> r
  | Run.Killed_at _ -> assert false

(* Every model's snapshot chain lives at this path on its own fresh
   in-memory filesystem. *)
let path = "/snaps/job.snap"
let fresh () = Mem.io (Mem.create ())
let uninterrupted j = completed (start ~io:(fresh ()) ~path j)

type report = {
  scenario : string;
  seed : int;
  mutable points : int;
  mutable torn : int;
  mutable primary : int;
  mutable fallback : int;
  mutable scratch : int;
  mutable absent : int;
  mutable corrupted : int;
  mutable violations : string list;
}

let report scenario seed =
  {
    scenario;
    seed;
    points = 0;
    torn = 0;
    primary = 0;
    fallback = 0;
    scratch = 0;
    absent = 0;
    corrupted = 0;
    violations = [];
  }

let violation r fmt =
  Printf.ksprintf
    (fun msg ->
      r.violations <-
        Printf.sprintf "%s seed %d: %s" r.scenario r.seed msg :: r.violations)
    fmt

let recover ?kill_after ~io ~path r j =
  match Run.resume_run ~io ?kill_after ~path () with
  | Some (o, `Primary) ->
      r.primary <- r.primary + 1;
      o
  | Some (o, `Fallback) ->
      r.fallback <- r.fallback + 1;
      o
  | None ->
      (* Both generations unusable (corrupted or torn, or the run died
         before its first snapshot landed): start over. *)
      r.scratch <- r.scratch + 1;
      start ?kill_after ~io ~path j

(* -- crash-point enumeration ----------------------------------------- *)

(* Record every mutating filesystem operation a durable workflow performs,
   then re-run it once per (operation, crash mode) pair with a backend that
   kills the "process" exactly there, and recover.  Unlike the kill model
   (which samples kill points), this visits every write/fsync/rename
   boundary — nothing is left to luck. *)

let record run =
  let rio, ops = Io.recording (fresh ()) in
  run rio;
  ops ()

(* Every op index under both crash modes; a crash landing on a write also
   gets the torn variant (half the data reaches the disk first).  Torn
   only composes with [`Keep]: under [`Drop] the un-synced torn prefix
   vanishes anyway, collapsing into the plain case. *)
let crash_plans ops =
  List.concat
    (List.mapi
       (fun k (op : Io.op) ->
         (k, `Drop, false) :: (k, `Keep, false)
         ::
         (if op.Io.op_kind = Io.Op_write then [ (k, `Keep, true) ] else []))
       (Array.to_list ops))

let describe_point ops k mode torn =
  let op = ops.(k) in
  Printf.sprintf "crash at op %d (%s %s, %s%s)" k
    (Io.op_kind_name op.Io.op_kind)
    op.Io.op_path
    (match mode with `Drop -> "drop" | `Keep -> "keep")
    (if torn then ", torn" else "")

let crash_points r ops run check =
  List.iter
    (fun (k, mode, torn) ->
      r.points <- r.points + 1;
      if torn then r.torn <- r.torn + 1;
      let where = describe_point ops k mode torn in
      let fs = Mem.create () in
      (match run (Io.crash_at ~at:k ~torn (Mem.io fs)) with
      | exception Io.Crashed -> ()
      | () -> violation r "%s: run finished without crashing" where);
      Mem.crash mode fs;
      try check k where (Mem.io fs)
      with e ->
        violation r "%s: recovery raised %s" where (Printexc.to_string e))
    (crash_plans ops)

(* -- crash models ---------------------------------------------------- *)

let replay (j : job) =
  let r = report "replay" j.seed in
  let snaps = ref [] in
  let baseline =
    completed
      (start ~on_snapshot:(fun s -> snaps := s :: !snaps) ~io:(fresh ()) ~path j)
  in
  List.iteri
    (fun i snap ->
      r.points <- r.points + 1;
      match Run.resume_from_snapshot snap with
      | Run.Completed res when results_match baseline res -> ()
      | _ -> violation r "replay from snapshot %d diverged" (i + 1))
    (List.rev !snaps);
  r

let kill ?(cycles = 20) (j : job) =
  let r = report "kill" j.seed in
  let baseline = uninterrupted j in
  let io = fresh () in
  (* Kill points are drawn from a supervisor stream independent of the run's
     own seeds, and only move forward so every cycle makes progress even
     when a kill lands before the next checkpoint boundary. *)
  let rng = Rng.create ~seed:(j.seed + 90210) in
  let span = max j.checkpoint_every (baseline.Run.instrs / max 1 cycles) in
  let rec cycle n kill_at =
    if n > cycles then completed (recover ~io ~path r j)
    else
      let kill_after = kill_at + 1 + Rng.int rng span in
      let outcome =
        if n = 1 then start ~kill_after ~io ~path j
        else recover ~kill_after ~io ~path r j
      in
      match outcome with
      | Run.Killed_at _ ->
          r.points <- r.points + 1;
          cycle (n + 1) kill_after
      | Run.Completed survivor -> survivor
  in
  let survivor = cycle 1 0 in
  (match survivor.Run.fault_stats with
  | Some s -> r.corrupted <- s.Faults.snapshots_corrupted
  | None -> ());
  if not (results_match baseline survivor) then
    violation r "survivor differs from the uninterrupted run";
  r

let storage (j : job) =
  let r = report "snapshot" j.seed in
  let baseline = uninterrupted j in
  let run io = ignore (start ~io ~path j) in
  crash_points r (record run) run (fun _ where io ->
      if not (results_match baseline (completed (recover ~io ~path r j))) then
        violation r "%s: recovered run differs from uninterrupted run" where);
  (* The whole reason the rotation exists: a scratch restart must be the
     rare case, not the common one. *)
  if r.primary + r.fallback = 0 then
    violation r "no crash point ever resumed from a snapshot";
  r

(* -- reports --------------------------------------------------------- *)

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs
let total_points rs = sum (fun r -> r.points) rs
let total_violations rs = sum (fun r -> List.length r.violations) rs

let render name rs =
  let tbl =
    Table.create
      ~columns:
        [
          ("scenario", Table.Left);
          ("seed", Table.Right);
          ("points", Table.Right);
          ("torn", Table.Right);
          ("primary", Table.Right);
          ("fallback", Table.Right);
          ("scratch", Table.Right);
          ("absent", Table.Right);
          ("violations", Table.Right);
        ]
  in
  let counts rs =
    List.map
      (fun f -> string_of_int (sum f rs))
      [
        (fun r -> r.points);
        (fun r -> r.torn);
        (fun r -> r.primary);
        (fun r -> r.fallback);
        (fun r -> r.scratch);
        (fun r -> r.absent);
        (fun r -> List.length r.violations);
      ]
  in
  List.iter
    (fun r -> Table.add_row tbl (r.scenario :: string_of_int r.seed :: counts [ r ]))
    rs;
  Table.add_separator tbl;
  Table.add_row tbl ("total" :: "" :: counts rs);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render tbl);
  List.iter
    (fun r ->
      List.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "VIOLATION: %s\n" v))
        (List.rev r.violations))
    rs;
  Buffer.add_string buf
    (Printf.sprintf "%s: %d crash points, %d violations\n" name
       (total_points rs) (total_violations rs));
  Buffer.contents buf
