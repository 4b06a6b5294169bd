module Io = Ace_util.Io
module Crash = Ace_harness.Crash
module Run = Ace_harness.Run
module Render = Ace_harness.Render
module Scheme = Ace_harness.Scheme

let default_workload = "jess"
let default_scale = 0.05
let default_checkpoint_every = 2_000_000

(* The spool job lifecycle: admit the spec, run checkpointed, publish the
   result, clear the snapshots.  Every crash point lands somewhere in
   here; recovery is what a restarted daemon does. *)
let spool_scenario ~gold (j : Crash.job) =
  let t = Crash.report "spool" j.seed in
  let dir = "/spool" in
  let path = Spool.snap_path ~dir 1 in
  let run io =
    Spool.ensure_dir ~io dir;
    Spool.write_spec ~io ~dir 1
      (Protocol.job_spec ~scale:j.scale ~seed:j.seed
         ~workload:j.workload.Ace_workloads.Workload.name j.scheme);
    (match Crash.start ~io ~path j with
    | Run.Completed r -> Spool.write_result ~io ~dir 1 (Render.run_output r)
    | Run.Killed_at _ -> assert false);
    Spool.clear_snapshots ~io ~dir 1
  in
  let ops = Crash.record run in
  (* The job exists, durably, the moment its spec file is renamed into
     place — that rename is what Submit's [Accepted] reply stands on. *)
  let ack =
    let found = ref (-1) in
    Array.iteri
      (fun i (op : Io.op) ->
        if
          !found < 0
          && op.Io.op_kind = Io.Op_rename
          && op.Io.op_path = Spool.spec_path ~dir 1
        then found := i)
      ops;
    assert (!found >= 0);
    !found
  in
  Crash.crash_points t ops run (fun k where io ->
      (* A restarted daemon's recovery: remake the directory, scan. *)
      Spool.ensure_dir ~io dir;
      let scan = Spool.scan ~io ~dir () in
      let in_pending =
        List.exists (fun (e : Spool.entry) -> e.Spool.id = 1) scan.pending
      in
      let in_done = scan.Spool.done_ids = [ 1 ] in
      if scan.Spool.failed_ids <> [] then
        Crash.violation t "%s: job spuriously quarantined" where;
      if in_pending && in_done then
        Crash.violation t "%s: job duplicated (pending and done)" where;
      match (in_done, in_pending) with
      | true, _ -> (
          (* Settled before the crash: the published result must be the
             complete, uncorrupted output. *)
          match Spool.read_result ~io ~dir 1 with
          | Some output when output = gold -> ()
          | Some _ -> Crash.violation t "%s: settled result corrupted" where
          | None -> Crash.violation t "%s: result file unreadable" where)
      | false, true ->
          (* What a restarted daemon's worker does with a recovered pending
             job: resume or restart it, then settle. *)
          let output =
            match Crash.recover ~io ~path t j with
            | Run.Completed r -> Render.run_output r
            | Run.Killed_at _ -> assert false
          in
          Spool.write_result ~io ~dir 1 output;
          Spool.clear_snapshots ~io ~dir 1;
          let rescan = Spool.scan ~io ~dir () in
          if rescan.Spool.done_ids <> [ 1 ] || rescan.Spool.pending <> [] then
            Crash.violation t "%s: job not settled after recovery" where;
          if output <> gold then
            Crash.violation t
              "%s: recovered output differs from uninterrupted run" where
      | false, false ->
          (* Lost — legal only before the acknowledgement point. *)
          if k > ack then Crash.violation t "%s: acknowledged job lost" where
          else t.absent <- t.absent + 1);
  t

let run_matrix ?(workload = default_workload) ?(scale = default_scale)
    ?(checkpoint_every = default_checkpoint_every) ~seeds () =
  let w =
    match Ace_workloads.Specjvm.find workload with
    | Some w -> w
    | None -> invalid_arg (Printf.sprintf "Torture.run_matrix: %S" workload)
  in
  List.concat_map
    (fun seed ->
      let j =
        {
          Crash.workload = w;
          scheme = Scheme.Hotspot;
          scale;
          seed;
          fault_rate = None;
          checkpoint_every;
        }
      in
      let gold = Render.run_output (Run.run ~scale ~seed w Scheme.Hotspot) in
      [ Crash.storage j; spool_scenario ~gold j ])
    seeds
