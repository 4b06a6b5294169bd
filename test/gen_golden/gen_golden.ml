(* Regenerate the committed golden snapshots after a Snapshot.version bump:

     dune exec test/gen_golden/gen_golden.exe -- test

   writes test/golden.snap and test/golden_bbv.snap.  Each is the first
   snapshot of a small checkpointed run; test_ckpt.ml decodes both and checks
   that re-encoding reproduces them byte for byte.

   - golden.snap: compress/hotspot with a Full observability sink, so it
     pins the framework, tuner and obs encodings.
   - golden_bbv.snap: compress/bbv with phase-memoized sampling and a 2%
     fault rate, so it pins the BBV, fault, sampler and meta.sample
     encodings that golden.snap leaves out. *)

module Obs = Ace_obs.Obs
module Snapshot = Ace_ckpt.Snapshot

let first_snapshot ?fault_rate ?sample ?obs scheme =
  let workload =
    match Ace_workloads.Specjvm.find "compress" with
    | Some w -> w
    | None -> failwith "compress workload not registered"
  in
  let first = ref None in
  let ckpt_path = Filename.temp_file "ace_golden" ".snap" in
  let outcome =
    Ace_harness.Run.run_checkpointed ~scale:0.2 ~seed:3 ?fault_rate ?sample ?obs
      ~on_snapshot:(fun snap -> if !first = None then first := Some snap)
      ~checkpoint_every:2_000_000 ~path:ckpt_path workload scheme
  in
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  (try Sys.remove (ckpt_path ^ ".1") with Sys_error _ -> ());
  (match outcome with
  | Ace_harness.Run.Completed _ -> ()
  | Ace_harness.Run.Killed_at _ -> failwith "golden run unexpectedly killed");
  match !first with
  | None -> failwith "run finished without writing a single checkpoint"
  | Some snap -> snap

let write path snap =
  let oc = open_out_bin path in
  output_string oc (Snapshot.encode snap);
  close_out oc;
  Printf.printf "wrote %s (version %d, %d instrs into the run)\n" path
    Snapshot.version snap.Snapshot.engine.Ace_vm.Engine.s_instrs

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  write
    (Filename.concat dir "golden.snap")
    (first_snapshot ~obs:(Obs.create Obs.Full) Ace_harness.Scheme.Hotspot);
  write
    (Filename.concat dir "golden_bbv.snap")
    (first_snapshot ~fault_rate:0.02 ~sample:Ace_sample.Sample.default_config
       Ace_harness.Scheme.Bbv)
