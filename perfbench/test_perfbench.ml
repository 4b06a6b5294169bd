(* The benchmark assembles its runs itself (Assembly) instead of calling
   [Ace_harness.Run.run], so it can time set-up and wrap hooks.  This test
   keeps the copy honest: at a small scale, for each scheme with and without
   sampling, the hook-wrapped assembly must yield exactly [Run.run]'s
   statistics. *)

module A = Perfbench.Assembly
module Run = Ace_harness.Run
module Scheme = Ace_harness.Scheme
module Sample = Ace_sample.Sample

let scale = 0.05
let seed = 3

let same_as_run w scheme sample () =
  let r = Run.run ~scale ~seed ?sample w scheme in
  let probes = A.fresh_probes () in
  let inst = A.setup ~probes ~scale ~seed ~sample w scheme in
  Ace_vm.Engine.run inst.A.engine;
  let s = A.finish inst in
  Alcotest.(check int) "instrs" r.Run.instrs s.A.instrs;
  Alcotest.(check (float 0.0)) "cycles" r.Run.cycles s.A.cycles;
  Alcotest.(check int) "overhead instrs" r.Run.overhead_instrs s.A.overhead_instrs;
  Alcotest.(check (float 0.0)) "L1D energy" r.Run.l1d_energy_nj s.A.l1d_nj;
  Alcotest.(check (float 0.0)) "L2 energy" r.Run.l2_energy_nj s.A.l2_nj;
  Alcotest.(check (float 0.0)) "L1D miss rate" r.Run.l1d_miss_rate s.A.l1d_miss_rate;
  Alcotest.(check (float 0.0)) "L2 miss rate" r.Run.l2_miss_rate s.A.l2_miss_rate;
  Alcotest.(check bool) "sample stats" true (r.Run.sample = s.A.sample);
  (match (scheme, r.Run.hotspot, r.Run.bbv) with
  | Scheme.Hotspot, Some h, _ ->
      let tunings = Array.fold_left (fun a c -> a + c.Ace_core.Framework.tunings) 0 h.Run.reports in
      Alcotest.(check int) "framework tunings" tunings s.A.tunings
  | Scheme.Bbv, _, Some b ->
      Alcotest.(check int) "bbv tunings" b.Run.bbv_tunings s.A.tunings;
      Alcotest.(check int) "bbv phases" b.Run.phases s.A.phases
  | _ -> ());
  (* The wrappers saw the run: every run enters methods and executes
     blocks. *)
  Alcotest.(check bool) "entry hook wrapped" true (probes.A.entry.A.calls > 0);
  Alcotest.(check bool) "block hook wrapped" true (probes.A.block.A.calls > 0);
  if sample <> None then
    Alcotest.(check bool) "guard wrapped" true (probes.A.guard.A.calls > 0)

let () =
  let cases =
    List.concat_map
      (fun name ->
        let w = Option.get (Ace_workloads.Specjvm.find name) in
        List.concat_map
          (fun scheme ->
            List.map
              (fun (mode, sample) ->
                Alcotest.test_case
                  (Printf.sprintf "%s/%s/%s" name (Scheme.name scheme) mode)
                  `Quick (same_as_run w scheme sample))
              [ ("full", None); ("sampled", Some Sample.default_config) ])
          Scheme.all)
      [ "compress"; "mtrt" ]
  in
  Alcotest.run "perfbench" [ ("assembly = Run.run", cases) ]
