module Table = Ace_util.Table
module Workload = Ace_workloads.Workload

type variant =
  | Standard of Scheme.t
  | Sampled of Scheme.t
  | No_decoupling
  | With_issue_queue
  | With_prediction
  | Bbv_with_predictor
  | Faulty of { scheme : Scheme.t; rate : float; resilient : bool }

type t = {
  scale : float;
  seed : int;
  jobs : int;
  sample : Ace_sample.Sample.config option;  (* context-wide sampling *)
  workloads : Workload.t list;
  cache : (string * variant, Run.result) Hashtbl.t;
  lock : Mutex.t;  (* guards [cache]; runs themselves are lock-free *)
  pool : Ace_util.Pool.t option;  (* Some iff jobs > 1 *)
  pool_owned : bool;  (* sub-contexts (stability) borrow the parent's pool *)
}

let make ~scale ~seed ~jobs ~sample ~workloads ~pool ~pool_owned =
  {
    scale;
    seed;
    jobs;
    sample;
    workloads;
    cache = Hashtbl.create 32;
    lock = Mutex.create ();
    pool;
    pool_owned;
  }

let create ?(scale = 1.0) ?(seed = 1) ?(jobs = 1) ?sample
    ?(workloads = Ace_workloads.Specjvm.all) () =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Experiments.create: jobs must be >= 1 (got %d)" jobs);
  (* The calling domain works the queue during a dispatch, so [jobs]-way
     parallelism needs [jobs - 1] workers; [jobs = 1] is the plain
     sequential path with no pool at all. *)
  let pool =
    if jobs > 1 then Some (Ace_util.Pool.create ~num_domains:(jobs - 1) ())
    else None
  in
  make ~scale ~seed ~jobs ~sample ~workloads ~pool ~pool_owned:true

let scale t = t.scale
let jobs t = t.jobs

let shutdown t =
  match t.pool with
  | Some p when t.pool_owned -> Ace_util.Pool.shutdown p
  | _ -> ()

(* Map in input order: through the pool when one is attached, else plain
   [List.map].  Every experiment below funnels its independent runs through
   this single dispatch point, so [jobs = 1] output is trivially the
   reference the parallel path must byte-match. *)
let pool_map t f xs =
  match t.pool with
  | None -> List.map f xs
  | Some p -> Ace_util.Pool.map p f xs

let compute_variant t w variant =
  match variant with
  | Standard scheme -> Run.run ~scale:t.scale ~seed:t.seed ?sample:t.sample w scheme
  | Sampled scheme ->
      Run.run ~scale:t.scale ~seed:t.seed
        ~sample:Ace_sample.Sample.default_config w scheme
  | No_decoupling ->
      Run.run ~scale:t.scale ~seed:t.seed ?sample:t.sample
        ~framework_config:
          { Ace_core.Framework.default_config with decoupling = false }
        w Scheme.Hotspot
  | With_issue_queue ->
      Run.run ~scale:t.scale ~seed:t.seed ?sample:t.sample
        ~with_issue_queue:true w Scheme.Hotspot
  | With_prediction ->
      Run.run ~scale:t.scale ~seed:t.seed ?sample:t.sample
        ~framework_config:
          { Ace_core.Framework.default_config with prediction = true }
        w Scheme.Hotspot
  | Bbv_with_predictor ->
      Run.run ~scale:t.scale ~seed:t.seed ?sample:t.sample
        ~bbv_prediction:true w Scheme.Bbv
  | Faulty { scheme; rate; resilient } ->
      let framework_config =
        if resilient then
          {
            Ace_core.Framework.default_config with
            resilience = Ace_core.Tuner.default_resilience;
          }
        else Ace_core.Framework.default_config
      in
      (* Sampling under faults is only safe with the resilience machinery
         (mirrors the CLI's --sample/--faults/--resilient rule). *)
      Run.run ~scale:t.scale ~seed:t.seed ~framework_config
        ?sample:(if resilient then t.sample else None)
        ~faults:(Ace_faults.Faults.preset ~rate) w scheme

let run_variant t w variant =
  let key = (w.Workload.name, variant) in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.cache key with
  | Some r ->
      Mutex.unlock t.lock;
      r
  | None ->
      Mutex.unlock t.lock;
      let r = compute_variant t w variant in
      (* First insertion wins so every reader sees one result object.  Two
         domains racing on the same key would have computed bit-identical
         results anyway (runs are seeded and independent), but [warm]
         deduplicates its job list so the race never actually happens. *)
      Mutex.lock t.lock;
      let r =
        match Hashtbl.find_opt t.cache key with
        | Some first -> first
        | None ->
            Hashtbl.replace t.cache key r;
            r
      in
      Mutex.unlock t.lock;
      r

let result t w scheme = run_variant t w (Standard scheme)

(* Fan the uncached (workload x variant) jobs of an experiment out over the
   pool.  Results land in the keyed cache, so the table-rendering code below
   runs unchanged afterwards and its output order — hence every byte of the
   rendered table — is independent of job completion order. *)
let warm t pairs =
  match t.pool with
  | None -> ()
  | Some _ ->
      let seen = Hashtbl.create 16 in
      let todo =
        List.filter
          (fun ((w : Workload.t), v) ->
            let key = (w.Workload.name, v) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              Mutex.lock t.lock;
              let cached = Hashtbl.mem t.cache key in
              Mutex.unlock t.lock;
              not cached
            end)
          pairs
      in
      ignore (pool_map t (fun (w, v) -> run_variant t w v) todo)

let warm_std t schemes =
  warm t
    (List.concat_map
       (fun s -> List.map (fun w -> (w, Standard s)) t.workloads)
       schemes)

let warm_variants t variants =
  warm t
    (List.concat_map (fun v -> List.map (fun w -> (w, v)) t.workloads) variants)

let pct = Table.cell_pct

(* ------------------------------------------------------------------ *)
(* Static configuration tables.                                        *)

let table2 () =
  let tbl = Table.create ~columns:[ ("Parameter", Table.Left); ("Value", Table.Left) ] in
  List.iter
    (fun (k, v) -> Table.add_row tbl [ k; v ])
    (Ace_cpu.Machine.rows Ace_cpu.Machine.default);
  tbl

let table3 () =
  let tbl =
    Table.create ~columns:[ ("Benchmark", Table.Left); ("Description", Table.Left) ]
  in
  List.iter
    (fun w -> Table.add_row tbl [ w.Workload.name; w.Workload.description ])
    Ace_workloads.Specjvm.all;
  tbl

(* ------------------------------------------------------------------ *)
(* Helpers over the whole suite.                                       *)

let fold_workloads t f =
  List.map (fun w -> (w, f w)) t.workloads

let mean xs = Ace_util.Stats.mean (Array.of_list xs)

let energy_reduction t w scheme =
  let base = result t w Scheme.Fixed_baseline in
  let r = result t w scheme in
  ( 1.0 -. (r.Run.l1d_energy_nj /. base.Run.l1d_energy_nj),
    1.0 -. (r.Run.l2_energy_nj /. base.Run.l2_energy_nj) )

let slowdown t w scheme =
  let base = result t w Scheme.Fixed_baseline in
  let r = result t w scheme in
  (r.Run.cycles /. base.Run.cycles) -. 1.0

let average_energy_reduction t scheme =
  let pairs = List.map (fun w -> energy_reduction t w scheme) t.workloads in
  (mean (List.map fst pairs), mean (List.map snd pairs))

let average_slowdown t scheme =
  mean (List.map (fun w -> slowdown t w scheme) t.workloads)

(* ------------------------------------------------------------------ *)
(* Table 1: latencies, measured.                                       *)

let table1 t =
  warm_std t [ Scheme.Hotspot ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Metric", Table.Left);
          ("Temporal (BBV), measured", Table.Left);
          ("DO-based, measured", Table.Left);
        ]
  in
  (* Average configurations tested per tuned hotspot / phase. *)
  let hotspot_trials =
    fold_workloads t (fun w ->
        let r = result t w Scheme.Hotspot in
        match r.Run.hotspot with
        | Some h ->
            let tuned =
              Array.fold_left (fun a c -> a + c.Ace_core.Framework.tuned_hotspots) 0 h.Run.reports
            in
            let trials =
              List.fold_left (fun a v -> a + v.Ace_core.Framework.tested) 0 h.Run.views
            in
            if tuned = 0 then 0.0 else float_of_int trials /. float_of_int tuned
        | None -> 0.0)
  in
  let id_latency =
    mean
      (List.map
         (fun (_, x) -> x)
         (fold_workloads t (fun w ->
              (result t w Scheme.Hotspot).Run.do_stats.Run.id_latency_frac)))
  in
  Table.add_row tbl
    [
      "New phase identification latency";
      "1 sampling interval (1M instrs)";
      Printf.sprintf "%d invocations (%.2f%% of execution)"
        Run.default_hot_threshold (id_latency *. 100.0);
    ];
  Table.add_row tbl
    [
      "Recurring phase identification latency";
      "1 sampling interval";
      "0 (hotspot header recognized immediately)";
    ];
  Table.add_row tbl
    [
      "Tuning latency (configurations tested)";
      "16 (all combinations)";
      Printf.sprintf "%.1f on average (CU subset only)"
        (mean (List.map snd hotspot_trials));
    ];
  tbl

(* ------------------------------------------------------------------ *)
(* Figure 1: stable vs transitional intervals.                         *)

let fig1 t =
  warm_std t [ Scheme.Bbv ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("Stable", Table.Right);
          ("Transitional", Table.Right);
          ("Intervals", Table.Right);
          ("BBV phases", Table.Right);
        ]
  in
  let fracs =
    fold_workloads t (fun w ->
        match (result t w Scheme.Bbv).Run.bbv with
        | Some b -> b
        | None -> assert false)
  in
  List.iter
    (fun (w, (b : Run.bbv_stats)) ->
      let intervals =
        (result t w Scheme.Bbv).Run.instrs / Run.bbv_interval
      in
      Table.add_row tbl
        [
          w.Workload.name;
          pct b.Run.stable_frac;
          pct (1.0 -. b.Run.stable_frac);
          string_of_int intervals;
          string_of_int b.Run.phases;
        ])
    fracs;
  Table.add_separator tbl;
  Table.add_row tbl
    [
      "avg";
      pct (mean (List.map (fun (_, b) -> b.Run.stable_frac) fracs));
      pct (mean (List.map (fun (_, b) -> 1.0 -. b.Run.stable_frac) fracs));
    ];
  tbl

(* ------------------------------------------------------------------ *)
(* Table 4: hotspot characteristics.                                   *)

let table4 t =
  warm_std t [ Scheme.Hotspot ];
  let tbl =
    Table.create
      ~columns:
        ([ ("Metric", Table.Left) ]
        @ List.map (fun w -> (w.Workload.name, Table.Right)) t.workloads)
  in
  let stats =
    List.map (fun w -> (result t w Scheme.Hotspot)) t.workloads
  in
  let row label f = Table.add_row tbl (label :: List.map f stats) in
  row "dynamic instruction count" (fun r -> Table.cell_int r.Run.instrs);
  row "number of hotspots" (fun r ->
      string_of_int r.Run.do_stats.Run.hotspot_count);
  row "average hotspot size" (fun r ->
      Table.cell_int (int_of_float r.Run.do_stats.Run.mean_hotspot_size));
  row "% of code in hotspots" (fun r -> pct r.Run.do_stats.Run.pct_code_in_hotspots);
  row "average invocations per hotspot" (fun r ->
      Table.cell_int (int_of_float r.Run.do_stats.Run.mean_invocations));
  row "hotspot identification latency (% of execution)" (fun r ->
      pct ~decimals:2 r.Run.do_stats.Run.id_latency_frac);
  tbl

(* ------------------------------------------------------------------ *)
(* Table 5: hotspot vs BBV runtime characteristics.                    *)

let table5 t =
  warm_std t [ Scheme.Hotspot; Scheme.Bbv ];
  let tbl =
    Table.create
      ~columns:
        ([ ("Metric", Table.Left) ]
        @ List.map (fun w -> (w.Workload.name, Table.Right)) t.workloads)
  in
  let hs = List.map (fun w -> result t w Scheme.Hotspot) t.workloads in
  let bbv =
    List.map
      (fun w ->
        match (result t w Scheme.Bbv).Run.bbv with
        | Some b -> b
        | None -> assert false)
      t.workloads
  in
  let reports r =
    match r.Run.hotspot with Some h -> h.Run.reports | None -> assert false
  in
  let row label f = Table.add_row tbl (label :: List.map f hs) in
  let brow label f = Table.add_row tbl (label :: List.map f bbv) in
  row "number of L1D hotspots" (fun r ->
      string_of_int (reports r).(0).Ace_core.Framework.class_hotspots);
  row "number of L2 hotspots" (fun r ->
      string_of_int (reports r).(1).Ace_core.Framework.class_hotspots);
  row "total number of hotspots" (fun r ->
      string_of_int r.Run.do_stats.Run.hotspot_count);
  row "number of tuned (managed) hotspots" (fun r ->
      string_of_int
        (Array.fold_left
           (fun a c -> a + c.Ace_core.Framework.tuned_hotspots)
           0 (reports r)));
  row "% of managed hotspots tuned" (fun r ->
      let rs = reports r in
      let managed =
        Array.fold_left (fun a c -> a + c.Ace_core.Framework.class_hotspots) 0 rs
      and tuned =
        Array.fold_left (fun a c -> a + c.Ace_core.Framework.tuned_hotspots) 0 rs
      in
      if managed = 0 then "-" else pct (float_of_int tuned /. float_of_int managed));
  row "per-hotspot IPC CoV" (fun r -> pct r.Run.do_stats.Run.per_hotspot_ipc_cov);
  row "inter-hotspot IPC CoV" (fun r -> pct r.Run.do_stats.Run.inter_hotspot_ipc_cov);
  Table.add_separator tbl;
  brow "number of BBV phases" (fun b -> string_of_int b.Run.phases);
  brow "number of tuned phases" (fun b -> string_of_int b.Run.tuned_phases);
  brow "% of intervals in tuned phases" (fun b -> pct b.Run.intervals_in_tuned_frac);
  brow "per-phase IPC CoV" (fun b -> pct b.Run.per_phase_ipc_cov);
  brow "inter-phase IPC CoV" (fun b -> pct b.Run.inter_phase_ipc_cov);
  tbl

(* ------------------------------------------------------------------ *)
(* Table 6: tunings, reconfigurations, coverage.                       *)

let table6 t =
  warm_std t [ Scheme.Hotspot; Scheme.Bbv ];
  let tbl =
    Table.create
      ~columns:
        ([ ("Metric", Table.Left) ]
        @ List.map (fun w -> (w.Workload.name, Table.Right)) t.workloads)
  in
  let hs = List.map (fun w -> result t w Scheme.Hotspot) t.workloads in
  let bbv = List.map (fun w -> result t w Scheme.Bbv) t.workloads in
  let reports r =
    match r.Run.hotspot with Some h -> h.Run.reports | None -> assert false
  in
  let row label f = Table.add_row tbl (label :: List.map f hs) in
  row "L1D tunings" (fun r ->
      string_of_int (reports r).(0).Ace_core.Framework.tunings);
  row "L1D reconfigs" (fun r ->
      string_of_int (reports r).(0).Ace_core.Framework.reconfigs);
  row "L1D coverage" (fun r -> pct (reports r).(0).Ace_core.Framework.coverage);
  row "L2 tunings" (fun r ->
      string_of_int (reports r).(1).Ace_core.Framework.tunings);
  row "L2 reconfigs" (fun r ->
      string_of_int (reports r).(1).Ace_core.Framework.reconfigs);
  row "L2 coverage" (fun r -> pct (reports r).(1).Ace_core.Framework.coverage);
  Table.add_separator tbl;
  let brow label f = Table.add_row tbl (label :: List.map f bbv) in
  brow "BBV tunings" (fun r ->
      match r.Run.bbv with Some b -> string_of_int b.Run.bbv_tunings | None -> "-");
  brow "BBV reconfigs (L1D/L2)" (fun r ->
      match r.Run.bbv with
      | Some b ->
          Printf.sprintf "%d/%d" b.Run.bbv_reconfigs.(0) b.Run.bbv_reconfigs.(1)
      | None -> "-");
  brow "BBV coverage (stable intervals)" (fun r ->
      match r.Run.bbv with Some b -> pct b.Run.stable_frac | None -> "-");
  tbl

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4.                                                    *)

let fig3 t =
  warm_std t [ Scheme.Fixed_baseline; Scheme.Bbv; Scheme.Hotspot ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("L1D: BBV", Table.Right);
          ("L1D: hotspot", Table.Right);
          ("L2: BBV", Table.Right);
          ("L2: hotspot", Table.Right);
        ]
  in
  List.iter
    (fun w ->
      let b1, b2 = energy_reduction t w Scheme.Bbv in
      let h1, h2 = energy_reduction t w Scheme.Hotspot in
      Table.add_row tbl [ w.Workload.name; pct b1; pct h1; pct b2; pct h2 ])
    t.workloads;
  Table.add_separator tbl;
  let b1, b2 = average_energy_reduction t Scheme.Bbv in
  let h1, h2 = average_energy_reduction t Scheme.Hotspot in
  Table.add_row tbl [ "avg (measured)"; pct b1; pct h1; pct b2; pct h2 ];
  Table.add_row tbl [ "avg (paper)"; "32%"; "47%"; "52%"; "58%" ];
  tbl

let fig4 t =
  warm_std t [ Scheme.Fixed_baseline; Scheme.Bbv; Scheme.Hotspot ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("BBV slowdown", Table.Right);
          ("Hotspot slowdown", Table.Right);
        ]
  in
  List.iter
    (fun w ->
      Table.add_row tbl
        [
          w.Workload.name;
          pct ~decimals:2 (slowdown t w Scheme.Bbv);
          pct ~decimals:2 (slowdown t w Scheme.Hotspot);
        ])
    t.workloads;
  Table.add_separator tbl;
  Table.add_row tbl
    [
      "avg (measured)";
      pct ~decimals:2 (average_slowdown t Scheme.Bbv);
      pct ~decimals:2 (average_slowdown t Scheme.Hotspot);
    ];
  Table.add_row tbl [ "avg (paper)"; "1.87%"; "1.56%" ];
  tbl

(* ------------------------------------------------------------------ *)
(* Ablations and extension.                                            *)

let ablation_decoupling t =
  warm_variants t
    [ Standard Scheme.Fixed_baseline; Standard Scheme.Hotspot; No_decoupling ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("L1D saving (decoupled)", Table.Right);
          ("L1D saving (joint)", Table.Right);
          ("L2 saving (decoupled)", Table.Right);
          ("L2 saving (joint)", Table.Right);
          ("Tuned hotspots (dec/joint)", Table.Right);
          ("Slowdown (dec/joint)", Table.Right);
        ]
  in
  List.iter
    (fun w ->
      let base = result t w Scheme.Fixed_baseline in
      let dec = result t w Scheme.Hotspot in
      let joint = run_variant t w No_decoupling in
      let saving r which =
        match which with
        | `L1d -> 1.0 -. (r.Run.l1d_energy_nj /. base.Run.l1d_energy_nj)
        | `L2 -> 1.0 -. (r.Run.l2_energy_nj /. base.Run.l2_energy_nj)
      in
      let tuned r =
        match r.Run.hotspot with
        | Some h ->
            Array.fold_left
              (fun a c -> a + c.Ace_core.Framework.tuned_hotspots)
              0 h.Run.reports
        | None -> 0
      in
      let slow r = (r.Run.cycles /. base.Run.cycles) -. 1.0 in
      Table.add_row tbl
        [
          w.Workload.name;
          pct (saving dec `L1d);
          pct (saving joint `L1d);
          pct (saving dec `L2);
          pct (saving joint `L2);
          Printf.sprintf "%d/%d" (tuned dec) (tuned joint);
          Printf.sprintf "%s/%s"
            (pct ~decimals:2 (slow dec))
            (pct ~decimals:2 (slow joint));
        ])
    t.workloads;
  tbl

let ablation_thresholds t =
  let w = List.hd t.workloads in
  let tbl =
    Table.create
      ~columns:
        [
          ("performance_threshold", Table.Right);
          ("L1D saving", Table.Right);
          ("L2 saving", Table.Right);
          ("Slowdown", Table.Right);
        ]
  in
  let base = result t w Scheme.Fixed_baseline in
  (* These runs are keyed by threshold, not by variant, so they bypass the
     cache; the sweep still fans out over the pool. *)
  let runs =
    pool_map t
      (fun thr ->
        ( thr,
          Run.run ~scale:t.scale ~seed:t.seed
            ~framework_config:
              {
                Ace_core.Framework.default_config with
                tuner =
                  { Ace_core.Tuner.default_params with performance_threshold = thr };
              }
            w Scheme.Hotspot ))
      [ 0.005; 0.02; 0.05; 0.10 ]
  in
  List.iter
    (fun (thr, r) ->
      Table.add_row tbl
        [
          pct ~decimals:1 thr;
          pct (1.0 -. (r.Run.l1d_energy_nj /. base.Run.l1d_energy_nj));
          pct (1.0 -. (r.Run.l2_energy_nj /. base.Run.l2_energy_nj));
          pct ~decimals:2 ((r.Run.cycles /. base.Run.cycles) -. 1.0);
        ])
    runs;
  tbl

let extension_issue_queue t =
  warm_variants t [ Standard Scheme.Fixed_baseline; With_issue_queue ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("IQ hotspots", Table.Right);
          ("IQ tuned", Table.Right);
          ("IQ reconfigs", Table.Right);
          ("L1D saving", Table.Right);
          ("L2 saving", Table.Right);
          ("Slowdown", Table.Right);
        ]
  in
  List.iter
    (fun w ->
      let base = result t w Scheme.Fixed_baseline in
      let r = run_variant t w With_issue_queue in
      match r.Run.hotspot with
      | None -> ()
      | Some h ->
          let iq = h.Run.reports.(2) in
          Table.add_row tbl
            [
              w.Workload.name;
              string_of_int iq.Ace_core.Framework.class_hotspots;
              string_of_int iq.Ace_core.Framework.tuned_hotspots;
              string_of_int iq.Ace_core.Framework.reconfigs;
              pct (1.0 -. (r.Run.l1d_energy_nj /. base.Run.l1d_energy_nj));
              pct (1.0 -. (r.Run.l2_energy_nj /. base.Run.l2_energy_nj));
              pct ~decimals:2 ((r.Run.cycles /. base.Run.cycles) -. 1.0);
            ])
    t.workloads;
  tbl

let extension_prediction t =
  warm_variants t
    [ Standard Scheme.Fixed_baseline; Standard Scheme.Hotspot; With_prediction ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("L1D saving (tuned/predicted)", Table.Right);
          ("L2 saving (tuned/predicted)", Table.Right);
          ("Slowdown (tuned/predicted)", Table.Right);
          ("Predicted hotspots", Table.Right);
          ("Tuning trials (tuned/predicted)", Table.Right);
        ]
  in
  List.iter
    (fun w ->
      let base = result t w Scheme.Fixed_baseline in
      let tuned = result t w Scheme.Hotspot in
      let pred = run_variant t w With_prediction in
      let saving r f = 1.0 -. (f r /. f base) in
      let l1 r = r.Run.l1d_energy_nj and l2 r = r.Run.l2_energy_nj in
      let slow r = (r.Run.cycles /. base.Run.cycles) -. 1.0 in
      let reports r =
        match r.Run.hotspot with Some h -> h.Run.reports | None -> [||]
      in
      let total_of f r = Array.fold_left (fun a c -> a + f c) 0 (reports r) in
      Table.add_row tbl
        [
          w.Workload.name;
          Printf.sprintf "%s/%s" (pct (saving tuned l1)) (pct (saving pred l1));
          Printf.sprintf "%s/%s" (pct (saving tuned l2)) (pct (saving pred l2));
          Printf.sprintf "%s/%s"
            (pct ~decimals:2 (slow tuned))
            (pct ~decimals:2 (slow pred));
          string_of_int
            (total_of (fun c -> c.Ace_core.Framework.predicted_hotspots) pred);
          Printf.sprintf "%d/%d"
            (total_of (fun c -> c.Ace_core.Framework.tunings) tuned)
            (total_of (fun c -> c.Ace_core.Framework.tunings) pred);
        ])
    t.workloads;
  tbl

let extension_bbv_predictor t =
  warm_variants t
    [ Standard Scheme.Fixed_baseline; Standard Scheme.Bbv; Bbv_with_predictor ];
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("L1D saving (base/pred)", Table.Right);
          ("L2 saving (base/pred)", Table.Right);
          ("Slowdown (base/pred)", Table.Right);
          ("Predictions (correct/total)", Table.Right);
        ]
  in
  List.iter
    (fun w ->
      let base = result t w Scheme.Fixed_baseline in
      let plain = result t w Scheme.Bbv in
      let pred = run_variant t w Bbv_with_predictor in
      let saving r f = 1.0 -. (f r /. f base) in
      let l1 r = r.Run.l1d_energy_nj and l2 r = r.Run.l2_energy_nj in
      let slow r = (r.Run.cycles /. base.Run.cycles) -. 1.0 in
      Table.add_row tbl
        [
          w.Workload.name;
          Printf.sprintf "%s/%s" (pct (saving plain l1)) (pct (saving pred l1));
          Printf.sprintf "%s/%s" (pct (saving plain l2)) (pct (saving pred l2));
          Printf.sprintf "%s/%s"
            (pct ~decimals:2 (slow plain))
            (pct ~decimals:2 (slow pred));
          (match pred.Run.bbv_predictor with
          | Some (total, correct, _) -> Printf.sprintf "%d/%d" correct total
          | None -> "-");
        ])
    t.workloads;
  tbl

(* ------------------------------------------------------------------ *)
(* Resilience under injected hardware faults.                          *)

let resilience_fault_variants =
  List.map
    (fun rate -> Faulty { scheme = Scheme.Hotspot; rate; resilient = true })
    [ 0.005; 0.01; 0.05 ]
  @ [
      Faulty { scheme = Scheme.Hotspot; rate = 0.01; resilient = false };
      Faulty { scheme = Scheme.Bbv; rate = 0.01; resilient = false };
    ]

let resilience t =
  warm_variants t
    ([ Standard Scheme.Fixed_baseline; Standard Scheme.Hotspot ]
    @ resilience_fault_variants);
  let tbl =
    Table.create
      ~columns:
        [
          ("Variant", Table.Left);
          ("L1D saving", Table.Right);
          ("L2 saving", Table.Right);
          ("Slowdown", Table.Right);
          ("Misconfig time", Table.Right);
          ("Quarantined", Table.Right);
          ("Failed CUs", Table.Right);
          ("L1D retention", Table.Right);
        ]
  in
  (* All savings are measured against the fault-free fixed-maximum baseline:
     a faulty environment must not be allowed to redefine "100%". *)
  let avg_over f = mean (List.map f t.workloads) in
  let l1_saving v =
    avg_over (fun w ->
        let base = result t w Scheme.Fixed_baseline in
        1.0 -. ((run_variant t w v).Run.l1d_energy_nj /. base.Run.l1d_energy_nj))
  in
  let l2_saving v =
    avg_over (fun w ->
        let base = result t w Scheme.Fixed_baseline in
        1.0 -. ((run_variant t w v).Run.l2_energy_nj /. base.Run.l2_energy_nj))
  in
  let slow v =
    avg_over (fun w ->
        let base = result t w Scheme.Fixed_baseline in
        ((run_variant t w v).Run.cycles /. base.Run.cycles) -. 1.0)
  in
  let misconfig v =
    avg_over (fun w ->
        match (run_variant t w v).Run.resilience with
        | Some r -> r.Ace_core.Framework.misconfig_frac
        | None -> 0.0)
  in
  let sum_res v f =
    List.fold_left
      (fun acc w ->
        match (run_variant t w v).Run.resilience with
        | Some r -> acc + f r
        | None -> acc)
      0 t.workloads
  in
  let free_l1 = l1_saving (Standard Scheme.Hotspot) in
  let row name v ~hotspot =
    let l1 = l1_saving v in
    Table.add_row tbl
      [
        name;
        pct l1;
        pct (l2_saving v);
        pct ~decimals:2 (slow v);
        (if hotspot then pct ~decimals:2 (misconfig v) else "-");
        (if hotspot then
           string_of_int
             (sum_res v (fun r -> r.Ace_core.Framework.quarantined))
         else "-");
        (if hotspot then
           string_of_int (sum_res v (fun r -> r.Ace_core.Framework.failed_cus))
         else "-");
        (if free_l1 <= 0.0 then "-" else pct (l1 /. free_l1));
      ]
  in
  row "hotspot, fault-free" (Standard Scheme.Hotspot) ~hotspot:true;
  Table.add_separator tbl;
  List.iter
    (fun rate ->
      row
        (Printf.sprintf "hotspot resilient @%.1f%%" (rate *. 100.0))
        (Faulty { scheme = Scheme.Hotspot; rate; resilient = true })
        ~hotspot:true)
    [ 0.005; 0.01; 0.05 ];
  Table.add_separator tbl;
  row "hotspot non-resilient @1.0%"
    (Faulty { scheme = Scheme.Hotspot; rate = 0.01; resilient = false })
    ~hotspot:true;
  row "BBV @1.0%"
    (Faulty { scheme = Scheme.Bbv; rate = 0.01; resilient = false })
    ~hotspot:false;
  tbl

let stability t =
  let seeds = [ 1; 2; 3 ] in
  let tbl =
    Table.create
      ~columns:
        ([ ("Quantity", Table.Left) ]
        @ List.map (fun s -> (Printf.sprintf "seed %d" s, Table.Right)) seeds
        @ [ ("spread", Table.Right) ])
  in
  (* Fresh contexts per seed so memoization does not cross seeds; they
     borrow the parent's pool (never own it) so the whole sweep shares one
     set of worker domains. *)
  let ctxs =
    List.map
      (fun seed ->
        make ~scale:t.scale ~seed ~jobs:t.jobs ~sample:t.sample
          ~workloads:t.workloads ~pool:t.pool ~pool_owned:false)
      seeds
  in
  List.iter
    (fun c -> warm_std c [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ])
    ctxs;
  let row label f =
    let values = List.map f ctxs in
    let spread =
      List.fold_left Float.max neg_infinity values
      -. List.fold_left Float.min infinity values
    in
    Table.add_row tbl
      (label
      :: List.map pct values
      @ [ Printf.sprintf "%.1fpp" (spread *. 100.0) ])
  in
  row "L1D saving, hotspot (avg)" (fun c ->
      fst (average_energy_reduction c Scheme.Hotspot));
  row "L2 saving, hotspot (avg)" (fun c ->
      snd (average_energy_reduction c Scheme.Hotspot));
  row "L1D saving, BBV (avg)" (fun c -> fst (average_energy_reduction c Scheme.Bbv));
  row "L2 saving, BBV (avg)" (fun c -> snd (average_energy_reduction c Scheme.Bbv));
  row "slowdown, hotspot (avg)" (fun c -> average_slowdown c Scheme.Hotspot);
  row "slowdown, BBV (avg)" (fun c -> average_slowdown c Scheme.Bbv);
  tbl

(* Chaos-soak supervisor: kill/resume each scheme under 1% faults and check
   the survivor against the uninterrupted run.  Not part of [all] — it is a
   robustness check of the checkpoint subsystem, not one of the paper's
   tables.  Each scheme's soak runs on its own in-memory filesystem, so the
   pool jobs share nothing. *)
let soak ?(cycles = 20) t =
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("Scheme", Table.Left);
          ("Kills", Table.Right);
          ("Restarts", Table.Right);
          ("Fallbacks", Table.Right);
          ("Corrupted", Table.Right);
          ("Tables match", Table.Left);
        ]
  in
  let w =
    match List.find_opt (fun w -> w.Workload.name = "compress") t.workloads with
    | Some w -> w
    | None -> List.hd t.workloads
  in
  let soaks =
    pool_map t
      (fun scheme ->
        ( scheme,
          Crash.kill ~cycles
            {
              Crash.workload = w;
              scheme;
              scale = t.scale;
              seed = t.seed;
              fault_rate = Some 0.01;
              checkpoint_every =
                max 1 (int_of_float (float_of_int 2_000_000 *. t.scale));
            } ))
      [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ]
  in
  List.iter
    (fun (scheme, (r : Crash.report)) ->
      Table.add_row tbl
        [
          w.Workload.name;
          Scheme.name scheme;
          string_of_int r.points;
          string_of_int r.scratch;
          string_of_int r.fallback;
          string_of_int r.corrupted;
          (if r.violations = [] then "yes" else "NO");
        ])
    soaks;
  (tbl, List.map snd soaks)

(* Sampled vs full simulation, per benchmark and scheme: headline accuracy
   (energy, cycles) plus the exactness the design guarantees (instruction
   counts and hotspot census must be identical — the fast-forward path is
   architecturally exact).  Deterministic by construction (no wall-clock
   times; bench/main.exe --sample-json measures the speedup), so output is
   byte-identical across [jobs].  Not part of [all]. *)
let sample_accuracy t =
  let schemes = [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ] in
  warm t
    (List.concat_map
       (fun s ->
         List.concat_map (fun w -> [ (w, Standard s); (w, Sampled s) ]) t.workloads)
       schemes);
  let tbl =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("Scheme", Table.Left);
          ("Spliced", Table.Right);
          ("dL1D energy", Table.Right);
          ("dL2 energy", Table.Right);
          ("dCycles", Table.Right);
          ("Arch state", Table.Left);
        ]
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun w ->
          let full = run_variant t w (Standard scheme) in
          let samp = run_variant t w (Sampled scheme) in
          let delta f =
            let a = f full and b = f samp in
            if a = 0.0 then 0.0 else (b -. a) /. a
          in
          let spliced =
            match samp.Run.sample with
            | Some s ->
                float_of_int s.Ace_sample.Sample.spliced_instrs
                /. float_of_int (max 1 samp.Run.instrs)
            | None -> 0.0
          in
          let exact =
            full.Run.instrs = samp.Run.instrs
            && full.Run.do_stats.Run.hotspot_count
               = samp.Run.do_stats.Run.hotspot_count
            && full.Run.do_stats.Run.mean_invocations
               = samp.Run.do_stats.Run.mean_invocations
          in
          Table.add_row tbl
            [
              w.Workload.name;
              Scheme.name scheme;
              pct spliced;
              pct ~decimals:2 (delta (fun r -> r.Run.l1d_energy_nj));
              pct ~decimals:2 (delta (fun r -> r.Run.l2_energy_nj));
              pct ~decimals:2 (delta (fun r -> r.Run.cycles));
              (if exact then "exact" else "MISMATCH");
            ])
        t.workloads)
    schemes;
  tbl

let all t =
  (* Fan every cached variant of the whole suite out in one batch up front;
     the per-table warms below then all hit the cache. *)
  warm_variants t
    ([
       Standard Scheme.Fixed_baseline;
       Standard Scheme.Hotspot;
       Standard Scheme.Bbv;
       No_decoupling;
       With_issue_queue;
       With_prediction;
       Bbv_with_predictor;
     ]
    @ resilience_fault_variants);
  [
    ("table1", table1 t);
    ("table2", table2 ());
    ("table3", table3 ());
    ("fig1", fig1 t);
    ("table4", table4 t);
    ("table5", table5 t);
    ("table6", table6 t);
    ("fig3", fig3 t);
    ("fig4", fig4 t);
    ("ablation-decoupling", ablation_decoupling t);
    ("ablation-thresholds", ablation_thresholds t);
    ("ext-issue-queue", extension_issue_queue t);
    ("ext-prediction", extension_prediction t);
    ("ext-bbv-predictor", extension_bbv_predictor t);
    ("resilience", resilience t);
    ("stability", stability t);
  ]
