(* Integration tests: the Run/Experiments layer at reduced scale.  These are
   the reproduction's acceptance tests — they assert the *shape* of the
   paper's results (who wins, roughly by how much), not absolute numbers. *)
module Run = Ace_harness.Run
module Scheme = Ace_harness.Scheme
module Experiments = Ace_harness.Experiments

let scale = 0.3

let memo = Hashtbl.create 16

let result w scheme =
  let key = (w.Ace_workloads.Workload.name, Scheme.name scheme) in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
      let r = Run.run ~scale w scheme in
      Hashtbl.replace memo key r;
      r

let compress = Ace_workloads.Compress.workload
let mpeg = Ace_workloads.Mpeg.workload

let test_scheme_names () =
  Alcotest.(check (list string)) "names"
    [ "baseline"; "hotspot"; "bbv" ]
    (List.map Scheme.name Scheme.all);
  List.iter
    (fun s -> Alcotest.(check bool) "roundtrip" true (Scheme.of_string (Scheme.name s) = Some s))
    Scheme.all;
  Alcotest.(check bool) "unknown" true (Scheme.of_string "magic" = None)

let test_baseline_stays_at_max () =
  let r = result compress Scheme.Fixed_baseline in
  Tu.check_approx ~eps:1.0 "L1D at 64KB" (64.0 *. 1024.0) r.Run.l1d_avg_bytes;
  Tu.check_approx ~eps:1.0 "L2 at 1MB" (1024.0 *. 1024.0) r.Run.l2_avg_bytes;
  Alcotest.(check bool) "no scheme stats" true
    (r.Run.hotspot = None && r.Run.bbv = None)

let test_same_program_instrs_across_schemes () =
  let b = result compress Scheme.Fixed_baseline in
  let h = result compress Scheme.Hotspot in
  let v = result compress Scheme.Bbv in
  Alcotest.(check int) "hotspot same instrs" b.Run.instrs h.Run.instrs;
  Alcotest.(check int) "bbv same instrs" b.Run.instrs v.Run.instrs

let test_hotspot_saves_energy () =
  let b = result compress Scheme.Fixed_baseline in
  let h = result compress Scheme.Hotspot in
  Alcotest.(check bool) "L1D energy saved" true
    (h.Run.l1d_energy_nj < 0.8 *. b.Run.l1d_energy_nj);
  Alcotest.(check bool) "L2 energy saved" true
    (h.Run.l2_energy_nj < 0.8 *. b.Run.l2_energy_nj)

let test_hotspot_beats_bbv_on_compress () =
  let h = result compress Scheme.Hotspot in
  let v = result compress Scheme.Bbv in
  Alcotest.(check bool) "hotspot saves at least as much L1D energy" true
    (h.Run.l1d_energy_nj < v.Run.l1d_energy_nj *. 1.05);
  (* At reduced scale the hotspot scheme's tuning overhead is amortized over
     64x fewer instructions than in the paper, so allow a margin; the
     full-scale comparison is Figure 4 in EXPERIMENTS.md. *)
  Alcotest.(check bool) "hotspot is not appreciably slower" true
    (h.Run.cycles <= v.Run.cycles *. 1.08)

let test_slowdowns_ordered () =
  let b = result compress Scheme.Fixed_baseline in
  let h = result compress Scheme.Hotspot in
  Alcotest.(check bool) "adaptive is slower than fixed" true (h.Run.cycles > b.Run.cycles);
  Alcotest.(check bool) "but within 20% at this scale" true
    (h.Run.cycles < 1.2 *. b.Run.cycles)

let test_hotspot_stats_present () =
  let h = result mpeg Scheme.Hotspot in
  match h.Run.hotspot with
  | None -> Alcotest.fail "hotspot stats missing"
  | Some stats ->
      Alcotest.(check int) "two CUs" 2 (Array.length stats.Run.reports);
      Alcotest.(check bool) "some hotspots managed" true
        (Array.exists (fun r -> r.Ace_core.Framework.class_hotspots > 0) stats.Run.reports);
      Alcotest.(check bool) "views non-empty" true (stats.Run.views <> [])

let test_bbv_stats_present () =
  let v = result mpeg Scheme.Bbv in
  match v.Run.bbv with
  | None -> Alcotest.fail "bbv stats missing"
  | Some stats ->
      Alcotest.(check bool) "phases detected" true (stats.Run.phases >= 1);
      Alcotest.(check bool) "stable fraction in [0,1]" true
        (stats.Run.stable_frac >= 0.0 && stats.Run.stable_frac <= 1.0)

let test_do_stats_sane () =
  let h = result mpeg Scheme.Hotspot in
  let s = h.Run.do_stats in
  Alcotest.(check bool) "hotspots found" true (s.Run.hotspot_count > 3);
  Alcotest.(check bool) "coverage high" true (s.Run.pct_code_in_hotspots > 0.9);
  Alcotest.(check bool) "id latency small" true (s.Run.id_latency_frac < 0.2);
  Alcotest.(check bool) "mean size positive" true (s.Run.mean_hotspot_size > 0.0)

let test_seed_determinism () =
  let a = Run.run ~scale:0.05 compress Scheme.Hotspot in
  let b = Run.run ~scale:0.05 compress Scheme.Hotspot in
  Alcotest.(check bool) "bit-identical results" true
    (a.Run.cycles = b.Run.cycles && a.Run.l1d_energy_nj = b.Run.l1d_energy_nj)

let test_seed_sensitivity () =
  let a = Run.run ~scale:0.05 ~seed:1 compress Scheme.Fixed_baseline in
  let b = Run.run ~scale:0.05 ~seed:2 compress Scheme.Fixed_baseline in
  Alcotest.(check bool) "different seeds give different cycles" true
    (a.Run.cycles <> b.Run.cycles)

(* The first allocation gate on a real run rather than a micro loop: a
   whole compress x hotspot run, workload construction included, stays
   under 0.1 minor words per simulated instruction.  With a boxed RNG
   state every [Random_in] address cost a boxed int64 and the run sat
   near 1 word/instr. *)
let test_run_allocation_ceiling () =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let r = Run.run ~scale:0.1 compress Scheme.Hotspot in
  let words = Gc.minor_words () -. w0 in
  let per_instr = words /. float_of_int r.Run.instrs in
  Printf.printf "compress/hotspot: %.0f minor words over %d instrs (%.4f/instr)\n" words
    r.Run.instrs per_instr;
  if per_instr >= 0.1 then
    Alcotest.failf "compress/hotspot allocated %.4f minor words per instruction (>= 0.1)" per_instr

(* --- experiments layer --- *)

let ctx =
  lazy (Experiments.create ~scale:0.3 ~workloads:[ compress; mpeg ] ())

let rendered tbl =
  let s = Ace_util.Table.render tbl in
  Alcotest.(check bool) "non-empty render" true (String.length s > 50);
  s

let test_static_tables () =
  ignore (rendered (Experiments.table2 ()));
  ignore (rendered (Experiments.table3 ()))

let test_experiment_tables_render () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (name, tbl) ->
      let s = Ace_util.Table.render tbl in
      Alcotest.(check bool) (name ^ " renders") true (String.length s > 50))
    (Experiments.all ctx)

let test_energy_reduction_accessors () =
  let ctx = Lazy.force ctx in
  let l1, l2 = Experiments.energy_reduction ctx compress Scheme.Hotspot in
  Alcotest.(check bool) "L1D reduction in (0,1)" true (l1 > 0.0 && l1 < 1.0);
  Alcotest.(check bool) "L2 reduction in (-1,1)" true (l2 > -1.0 && l2 < 1.0);
  let avg1, avg2 = Experiments.average_energy_reduction ctx Scheme.Hotspot in
  Alcotest.(check bool) "averages finite" true
    (Float.is_finite avg1 && Float.is_finite avg2);
  Alcotest.(check bool) "slowdown positive" true
    (Experiments.slowdown ctx compress Scheme.Hotspot > 0.0)

let suite =
  [
    Tu.case "scheme names" test_scheme_names;
    Tu.slow_case "baseline stays at max" test_baseline_stays_at_max;
    Tu.slow_case "same program instrs across schemes" test_same_program_instrs_across_schemes;
    Tu.slow_case "hotspot saves energy" test_hotspot_saves_energy;
    Tu.slow_case "hotspot beats bbv on compress" test_hotspot_beats_bbv_on_compress;
    Tu.slow_case "slowdowns ordered" test_slowdowns_ordered;
    Tu.slow_case "hotspot stats present" test_hotspot_stats_present;
    Tu.slow_case "bbv stats present" test_bbv_stats_present;
    Tu.slow_case "do stats sane" test_do_stats_sane;
    Tu.slow_case "seed determinism" test_seed_determinism;
    Tu.slow_case "seed sensitivity" test_seed_sensitivity;
    Tu.slow_case "run allocation ceiling" test_run_allocation_ceiling;
    Tu.case "static tables" test_static_tables;
    Tu.slow_case "experiment tables render" test_experiment_tables_render;
    Tu.slow_case "energy reduction accessors" test_energy_reduction_accessors;
  ]
