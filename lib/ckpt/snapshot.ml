module Codec = Ace_util.Codec
module Crc32 = Ace_util.Crc32
module Io = Ace_util.Io
module Stats = Ace_util.Stats
module Pattern = Ace_isa.Pattern
module Cache = Ace_mem.Cache
module Tlb = Ace_mem.Tlb
module Hierarchy = Ace_mem.Hierarchy
module Accounting = Ace_power.Accounting
module Db = Ace_vm.Do_database
module Engine = Ace_vm.Engine
module Cu = Ace_core.Cu
module Tuner = Ace_core.Tuner
module Framework = Ace_core.Framework
module Bbv_scheme = Ace_bbv.Scheme
module Vector = Ace_bbv.Vector
module Tracker = Ace_bbv.Tracker
module Next_phase = Ace_bbv.Next_phase
module Faults = Ace_faults.Faults
module Obs = Ace_obs.Obs
module Sample = Ace_sample.Sample

type error =
  | Truncated of { expected : int; got : int }
  | Bad_magic
  | Version_skew of { found : int; expected : int }
  | Crc_mismatch of { stored : int; computed : int }
  | Malformed of string
  | Unreadable of string

exception Error of error

let error_to_string = function
  | Truncated { expected; got } ->
      Printf.sprintf "truncated snapshot: need %d bytes, have %d" expected got
  | Bad_magic -> "bad magic"
  | Version_skew { found; expected } ->
      Printf.sprintf "snapshot version %d, expected %d" found expected
  | Crc_mismatch { stored; computed } ->
      Printf.sprintf "CRC mismatch: stored %08x, computed %08x" stored computed
  | Malformed msg -> "malformed snapshot: " ^ msg
  | Unreadable msg -> "cannot read snapshot: " ^ msg

type scheme = Baseline | Hotspot | Bbv

type meta = {
  workload : string;
  scheme : scheme;
  scale : float;
  seed : int;
  hot_threshold : int;
  with_issue_queue : bool;
  bbv_prediction : bool;
  resilient : bool;
  fault_rate : float option;
  checkpoint_every : int;
  sample : Sample.config option;
}

type scheme_state =
  | S_baseline
  | S_hotspot of Framework.state
  | S_bbv of Bbv_scheme.state

type t = {
  meta : meta;
  engine : Engine.state;
  faults : Faults.state option;
  scheme_state : scheme_state;
  obs : Obs.state option;
  sample_state : Sample.state option;
}

(* {2 Payload codecs}

   One codec per serialized state type: each record is its fields in
   serialization order, and the encoder and decoder both follow that single
   description.  The layout is the snapshot format: changing any of these
   (or the state types they serialize) requires bumping {!version} below. *)

module Payload () = struct
  open Codec

  let running =
    record (fun s_n s_mean s_m2 s_last -> { Stats.Running.s_n; s_mean; s_m2; s_last })
    |+ (int, fun s -> s.Stats.Running.s_n)
    |+ (f64, fun s -> s.s_mean)
    |+ (f64, fun s -> s.s_m2)
    |+ (f64, fun s -> s.s_last)
    |> seal

  let ema =
    record (fun s_value s_seeded -> { Stats.Ema.s_value; s_seeded })
    |+ (f64, fun s -> s.Stats.Ema.s_value)
    |+ (bool, fun s -> s.s_seeded)
    |> seal

  let cursor =
    record (fun s_offset s_steps -> { Pattern.s_offset; s_steps })
    |+ (int, fun s -> s.Pattern.s_offset)
    |+ (int, fun s -> s.s_steps)
    |> seal

  let cache =
    record (fun s_size_bytes s_tags s_dirty s_stamp s_clock s_last_victim s_accesses
        s_hits s_writebacks s_flush_writebacks s_resizes ->
        { Cache.s_size_bytes; s_tags; s_dirty; s_stamp; s_clock; s_last_victim; s_accesses;
          s_hits; s_writebacks; s_flush_writebacks; s_resizes })
    |+ (int, fun s -> s.Cache.s_size_bytes)
    |+ (int_array, fun s -> s.s_tags)
    |+ (bool_array, fun s -> s.s_dirty)
    |+ (int_array, fun s -> s.s_stamp)
    |+ (int, fun s -> s.s_clock)
    |+ (int, fun s -> s.s_last_victim)
    |+ (int, fun s -> s.s_accesses)
    |+ (int, fun s -> s.s_hits)
    |+ (int, fun s -> s.s_writebacks)
    |+ (int, fun s -> s.s_flush_writebacks)
    |+ (int, fun s -> s.s_resizes)
    |> seal

  let tlb =
    record (fun s_resident s_fifo s_head s_filled s_accesses s_misses ->
        { Tlb.s_resident; s_fifo; s_head; s_filled; s_accesses; s_misses })
    |+ (int_array, fun s -> s.Tlb.s_resident)
    |+ (int_array, fun s -> s.s_fifo)
    |+ (int, fun s -> s.s_head)
    |+ (int, fun s -> s.s_filled)
    |+ (int, fun s -> s.s_accesses)
    |+ (int, fun s -> s.s_misses)
    |> seal

  let hier =
    record (fun s_l1i s_l1d s_l2 s_dtlb s_mem_reads s_mem_writebacks ->
        { Hierarchy.s_l1i; s_l1d; s_l2; s_dtlb; s_mem_reads; s_mem_writebacks })
    |+ (cache, fun s -> s.Hierarchy.s_l1i)
    |+ (cache, fun s -> s.s_l1d)
    |+ (cache, fun s -> s.s_l2)
    |+ (tlb, fun s -> s.s_dtlb)
    |+ (int, fun s -> s.s_mem_reads)
    |+ (int, fun s -> s.s_mem_writebacks)
    |> seal

  let counts =
    record (fun c_l1i_accesses c_l1i_hits c_l1i_writebacks c_l1d_accesses c_l1d_hits
        c_l1d_writebacks c_l2_accesses c_l2_hits c_l2_writebacks c_tlb_accesses
        c_tlb_misses c_mem_reads c_mem_writebacks ->
        { Hierarchy.c_l1i_accesses; c_l1i_hits; c_l1i_writebacks; c_l1d_accesses;
          c_l1d_hits; c_l1d_writebacks; c_l2_accesses; c_l2_hits; c_l2_writebacks;
          c_tlb_accesses; c_tlb_misses; c_mem_reads; c_mem_writebacks })
    |+ (int, fun c -> c.Hierarchy.c_l1i_accesses)
    |+ (int, fun c -> c.c_l1i_hits)
    |+ (int, fun c -> c.c_l1i_writebacks)
    |+ (int, fun c -> c.c_l1d_accesses)
    |+ (int, fun c -> c.c_l1d_hits)
    |+ (int, fun c -> c.c_l1d_writebacks)
    |+ (int, fun c -> c.c_l2_accesses)
    |+ (int, fun c -> c.c_l2_hits)
    |+ (int, fun c -> c.c_l2_writebacks)
    |+ (int, fun c -> c.c_tlb_accesses)
    |+ (int, fun c -> c.c_tlb_misses)
    |+ (int, fun c -> c.c_mem_reads)
    |+ (int, fun c -> c.c_mem_writebacks)
    |> seal

  let db_entry =
    record (fun s_invocations s_samples s_compile_state s_is_hotspot s_promoted_at_instr
        s_pre_promotion_instrs s_size_ema s_ipc_profile s_entry_overhead
        s_exit_overhead ->
        { Db.s_invocations; s_samples; s_compile_state; s_is_hotspot; s_promoted_at_instr;
          s_pre_promotion_instrs; s_size_ema; s_ipc_profile; s_entry_overhead;
          s_exit_overhead })
    |+ (int, fun s -> s.Db.s_invocations)
    |+ (int, fun s -> s.s_samples)
    |+ (enum "compile_state" [| Db.Baseline; Db.Optimized |], fun s -> s.s_compile_state)
    |+ (bool, fun s -> s.s_is_hotspot)
    |+ (int, fun s -> s.s_promoted_at_instr)
    |+ (int, fun s -> s.s_pre_promotion_instrs)
    |+ (ema, fun s -> s.s_size_ema)
    |+ (running, fun s -> s.s_ipc_profile)
    |+ (int, fun s -> s.s_entry_overhead)
    |+ (int, fun s -> s.s_exit_overhead)
    |> seal

  let frame =
    record (fun fs_meth fs_quality fs_was_hotspot fs_saved_meth fs_instrs0 fs_cycles0
        fs_l1a0 fs_l1m0 fs_l2a0 fs_l2m0 fs_sample fs_pos fs_calls_left ->
        { Engine.fs_meth; fs_quality; fs_was_hotspot; fs_saved_meth; fs_instrs0;
          fs_cycles0; fs_l1a0; fs_l1m0; fs_l2a0; fs_l2m0; fs_sample; fs_pos;
          fs_calls_left })
    |+ (int, fun s -> s.Engine.fs_meth)
    |+ (f64, fun s -> s.fs_quality)
    |+ (bool, fun s -> s.fs_was_hotspot)
    |+ (int, fun s -> s.fs_saved_meth)
    |+ (int, fun s -> s.fs_instrs0)
    |+ (f64, fun s -> s.fs_cycles0)
    |+ (int, fun s -> s.fs_l1a0)
    |+ (int, fun s -> s.fs_l1m0)
    |+ (int, fun s -> s.fs_l2a0)
    |+ (int, fun s -> s.fs_l2m0)
    |+ (int, fun s -> s.fs_sample)
    |+ (int, fun s -> s.fs_pos)
    |+ (int, fun s -> s.fs_calls_left)
    |> seal

  let ff_run =
    record (fun ffs_instrs ffs_cycles ffs_counts ffs_start_cycles ->
        { Engine.ffs_instrs; ffs_cycles; ffs_counts; ffs_start_cycles })
    |+ (int, fun s -> s.Engine.ffs_instrs)
    |+ (f64, fun s -> s.ffs_cycles)
    |+ (counts, fun s -> s.ffs_counts)
    |+ (f64, fun s -> s.ffs_start_cycles)
    |> seal

  let engine =
    record (fun s_instrs s_cycles s_overhead_instrs s_hot_instrs s_next_sample_at
        s_next_interval_at s_current_meth s_hotspot_depth s_ilp_scale s_exposure_scale
        s_stack s_rng s_cursors s_db s_hier s_ff ->
        { Engine.s_instrs; s_cycles; s_overhead_instrs; s_hot_instrs; s_next_sample_at;
          s_next_interval_at; s_current_meth; s_hotspot_depth; s_ilp_scale;
          s_exposure_scale; s_stack; s_rng; s_cursors; s_db; s_hier; s_ff })
    |+ (int, fun s -> s.Engine.s_instrs)
    |+ (f64, fun s -> s.s_cycles)
    |+ (int, fun s -> s.s_overhead_instrs)
    |+ (int, fun s -> s.s_hot_instrs)
    |+ (f64, fun s -> s.s_next_sample_at)
    |+ (int, fun s -> s.s_next_interval_at)
    |+ (int, fun s -> s.s_current_meth)
    |+ (int, fun s -> s.s_hotspot_depth)
    |+ (f64, fun s -> s.s_ilp_scale)
    |+ (f64, fun s -> s.s_exposure_scale)
    |+ (array frame, fun s -> s.s_stack)
    |+ (i64, fun s -> s.s_rng)
    |+ (array cursor, fun s -> s.s_cursors)
    |+ (array db_entry, fun s -> s.s_db)
    |+ (hier, fun s -> s.s_hier)
    |+ (option ff_run, fun s -> s.s_ff)
    |> seal

  let latch =
    record (fun ls_cu ls_until -> { Faults.ls_cu; ls_until })
    |+ (string, fun l -> l.Faults.ls_cu)
    |+ (option int, fun l -> l.ls_until)
    |> seal

  let faults =
    record (fun s_rng s_ckpt_rng s_latched s_writes_dropped s_writes_corrupted
        s_stuck_events s_spikes s_jittered_ticks s_snapshots_corrupted ->
        { Faults.s_rng; s_ckpt_rng; s_latched; s_writes_dropped; s_writes_corrupted;
          s_stuck_events; s_spikes; s_jittered_ticks; s_snapshots_corrupted })
    |+ (i64, fun s -> s.Faults.s_rng)
    |+ (i64, fun s -> s.s_ckpt_rng)
    |+ (array latch, fun s -> s.s_latched)
    |+ (int, fun s -> s.s_writes_dropped)
    |+ (int, fun s -> s.s_writes_corrupted)
    |+ (int, fun s -> s.s_stuck_events)
    |+ (int, fun s -> s.s_spikes)
    |+ (int, fun s -> s.s_jittered_ticks)
    |+ (int, fun s -> s.s_snapshots_corrupted)
    |> seal

  let cu =
    record (fun s_current s_last_reconfig_instr s_applied s_denied s_invalid ->
        { Cu.s_current; s_last_reconfig_instr; s_applied; s_denied; s_invalid })
    |+ (int, fun s -> s.Cu.s_current)
    |+ (int, fun s -> s.s_last_reconfig_instr)
    |+ (int, fun s -> s.s_applied)
    |+ (int, fun s -> s.s_denied)
    |+ (int, fun s -> s.s_invalid)
    |> seal

  let acct =
    record (fun s_size s_epoch_accesses s_epoch_cycles s_dynamic_nj s_leakage_nj
        s_reconfig_nj s_reconfigs s_weighted_size_cycles s_closed_cycles ->
        { Accounting.s_size; s_epoch_accesses; s_epoch_cycles; s_dynamic_nj; s_leakage_nj;
          s_reconfig_nj; s_reconfigs; s_weighted_size_cycles; s_closed_cycles })
    |+ (int, fun s -> s.Accounting.s_size)
    |+ (int, fun s -> s.s_epoch_accesses)
    |+ (f64, fun s -> s.s_epoch_cycles)
    |+ (f64, fun s -> s.s_dynamic_nj)
    |+ (f64, fun s -> s.s_leakage_nj)
    |+ (f64, fun s -> s.s_reconfig_nj)
    |+ (int, fun s -> s.s_reconfigs)
    |+ (f64, fun s -> s.s_weighted_size_cycles)
    |+ (f64, fun s -> s.s_closed_cycles)
    |> seal

  let tuner_measurement =
    record (fun ms_config ms_energy ms_ipc -> { Tuner.ms_config; ms_energy; ms_ipc })
    |+ (int_array, fun m -> m.Tuner.ms_config)
    |+ (f64, fun m -> m.ms_energy)
    |+ (f64, fun m -> m.ms_ipc)
    |> seal

  let tuning =
    record (fun ts_next ts_pending ts_measurements ts_acc_energy ts_acc_ipc ts_acc_n
        ts_acc_samples ts_warmup_left ts_attempts ts_backoff_left ts_degrade_flagged ->
        { Tuner.ts_next; ts_pending; ts_measurements; ts_acc_energy; ts_acc_ipc; ts_acc_n;
          ts_acc_samples; ts_warmup_left; ts_attempts; ts_backoff_left;
          ts_degrade_flagged })
    |+ (int, fun s -> s.Tuner.ts_next)
    |+ (bool, fun s -> s.ts_pending)
    |+ (list tuner_measurement, fun s -> s.ts_measurements)
    |+ (f64, fun s -> s.ts_acc_energy)
    |+ (f64, fun s -> s.ts_acc_ipc)
    |+ (int, fun s -> s.ts_acc_n)
    |+ (list (pair f64 f64), fun s -> s.ts_acc_samples)
    |+ (int, fun s -> s.ts_warmup_left)
    |+ (int, fun s -> s.ts_attempts)
    |+ (int, fun s -> s.ts_backoff_left)
    |+ (bool, fun s -> s.ts_degrade_flagged)
    |> seal

  let tuner_phase =
    variant "tuner phase"
      (fun b -> function
        | Tuner.S_tuning ts -> tag b 0; tuning.enc b ts
        | S_configured { cs_best; cs_ref_ipc; cs_exits; cs_sampling; cs_confirming } ->
            tag b 1; int_array.enc b cs_best; f64.enc b cs_ref_ipc; int.enc b cs_exits;
            bool.enc b cs_sampling; bool.enc b cs_confirming
        | S_quarantined { qs_best } -> tag b 2; int_array.enc b qs_best)
      [|
        (fun d -> Tuner.S_tuning (tuning.dec d));
        (fun d ->
          let cs_best = int_array.dec d in
          let cs_ref_ipc = f64.dec d in
          let cs_exits = int.dec d in
          let cs_sampling = bool.dec d in
          let cs_confirming = bool.dec d in
          Tuner.S_configured { cs_best; cs_ref_ipc; cs_exits; cs_sampling; cs_confirming });
        (fun d -> Tuner.S_quarantined { qs_best = int_array.dec d });
      |]

  let tuner =
    record (fun s_phase s_rounds s_tested_last_round s_total_exits s_retune_exits
        s_retries s_backoff_skips s_skipped_configs s_verify_failures ->
        { Tuner.s_phase; s_rounds; s_tested_last_round; s_total_exits; s_retune_exits;
          s_retries; s_backoff_skips; s_skipped_configs; s_verify_failures })
    |+ (tuner_phase, fun s -> s.Tuner.s_phase)
    |+ (int, fun s -> s.s_rounds)
    |+ (int, fun s -> s.s_tested_last_round)
    |+ (int, fun s -> s.s_total_exits)
    |+ (list int, fun s -> s.s_retune_exits)
    |+ (int, fun s -> s.s_retries)
    |+ (int, fun s -> s.s_backoff_skips)
    |+ (int, fun s -> s.s_skipped_configs)
    |+ (int, fun s -> s.s_verify_failures)
    |> seal

  let hotspot_state =
    record (fun hs_tuner hs_managed hs_ever_configured hs_last_invoked ->
        { Framework.hs_tuner; hs_managed; hs_ever_configured; hs_last_invoked })
    |+ (tuner, fun s -> s.Framework.hs_tuner)
    |+ (int_array, fun s -> s.hs_managed)
    |+ (bool, fun s -> s.hs_ever_configured)
    |+ (int, fun s -> s.hs_last_invoked)
    |> seal

  let framework =
    record (fun s_states s_accts s_cus s_class_depth s_class_start s_covered s_tunings
        s_reconfigs s_class_hotspots s_tuned_hotspots s_retunes s_predicted s_believed
        s_mis_since s_misconfig s_verify_failures s_consec_badwrites s_failed
        s_probe_countdown s_recoveries s_quarantined s_frame_masks s_invoke_tick
        s_unmanaged s_finalized ->
        { Framework.s_states; s_accts; s_cus; s_class_depth; s_class_start; s_covered;
          s_tunings; s_reconfigs; s_class_hotspots; s_tuned_hotspots; s_retunes;
          s_predicted; s_believed; s_mis_since; s_misconfig; s_verify_failures;
          s_consec_badwrites; s_failed; s_probe_countdown; s_recoveries; s_quarantined;
          s_frame_masks; s_invoke_tick; s_unmanaged; s_finalized })
    |+ (array (option hotspot_state), fun s -> s.Framework.s_states)
    |+ (array (option acct), fun s -> s.s_accts)
    |+ (array cu, fun s -> s.s_cus)
    |+ (int_array, fun s -> s.s_class_depth)
    |+ (int_array, fun s -> s.s_class_start)
    |+ (int_array, fun s -> s.s_covered)
    |+ (int_array, fun s -> s.s_tunings)
    |+ (int_array, fun s -> s.s_reconfigs)
    |+ (int_array, fun s -> s.s_class_hotspots)
    |+ (int_array, fun s -> s.s_tuned_hotspots)
    |+ (int_array, fun s -> s.s_retunes)
    |+ (int_array, fun s -> s.s_predicted)
    |+ (int_array, fun s -> s.s_believed)
    |+ (int_array, fun s -> s.s_mis_since)
    |+ (int_array, fun s -> s.s_misconfig)
    |+ (int_array, fun s -> s.s_verify_failures)
    |+ (int_array, fun s -> s.s_consec_badwrites)
    |+ (bool_array, fun s -> s.s_failed)
    |+ (int_array, fun s -> s.s_probe_countdown)
    |+ (int_array, fun s -> s.s_recoveries)
    |+ (int, fun s -> s.s_quarantined)
    |+ (list int, fun s -> s.s_frame_masks)
    |+ (int, fun s -> s.s_invoke_tick)
    |+ (int, fun s -> s.s_unmanaged)
    |+ (bool, fun s -> s.s_finalized)
    |> seal

  let vector =
    record (fun s_counters s_total -> { Vector.s_counters; s_total })
    |+ (int_array, fun v -> v.Vector.s_counters)
    |+ (int, fun v -> v.s_total)
    |> seal

  let tracker =
    record (fun s_signatures s_counts s_n_intervals s_n_stable s_cur_phase s_cur_run ->
        { Tracker.s_signatures; s_counts; s_n_intervals; s_n_stable; s_cur_phase;
          s_cur_run })
    |+ (array f64_array, fun t -> t.Tracker.s_signatures)
    |+ (int_array, fun t -> t.s_counts)
    |+ (int, fun t -> t.s_n_intervals)
    |+ (int, fun t -> t.s_n_stable)
    |+ (int, fun t -> t.s_cur_phase)
    |+ (int, fun t -> t.s_cur_run)
    |> seal

  let bbv_measurement =
    record (fun ms_config ms_energy ms_ipc -> { Bbv_scheme.ms_config; ms_energy; ms_ipc })
    |+ (int_array, fun m -> m.Bbv_scheme.ms_config)
    |+ (f64, fun m -> m.ms_energy)
    |+ (f64, fun m -> m.ms_ipc)
    |> seal

  let bbv_phase =
    record (fun ps_next ps_measurements ps_best ps_ipc_stats ->
        { Bbv_scheme.ps_next; ps_measurements; ps_best; ps_ipc_stats })
    |+ (int, fun p -> p.Bbv_scheme.ps_next)
    |+ (list bbv_measurement, fun p -> p.ps_measurements)
    |+ (option int_array, fun p -> p.ps_best)
    |+ (running, fun p -> p.ps_ipc_stats)
    |> seal

  let predictor =
    record (fun s_transitions s_n_predictions s_n_correct ->
        { Next_phase.s_transitions; s_n_predictions; s_n_correct })
    |+ (array (pair int (array (pair int int))), fun p -> p.Next_phase.s_transitions)
    |+ (int, fun p -> p.s_n_predictions)
    |+ (int, fun p -> p.s_n_correct)
    |> seal

  let bbv =
    record (fun s_vector s_tracker s_phases s_accts s_cus s_pending s_instrs0 s_cycles0
        s_l1a0 s_l1m0 s_l2a0 s_l2m0 s_predictor s_prev_phase s_pending_prediction
        s_n_tunings s_reconfigs s_finalized ->
        { Bbv_scheme.s_vector; s_tracker; s_phases; s_accts; s_cus; s_pending; s_instrs0;
          s_cycles0; s_l1a0; s_l1m0; s_l2a0; s_l2m0; s_predictor; s_prev_phase;
          s_pending_prediction; s_n_tunings; s_reconfigs; s_finalized })
    |+ (vector, fun s -> s.Bbv_scheme.s_vector)
    |+ (tracker, fun s -> s.s_tracker)
    |+ (array bbv_phase, fun s -> s.s_phases)
    |+ (array (option acct), fun s -> s.s_accts)
    |+ (array cu, fun s -> s.s_cus)
    |+ ( option (triple int int (enum "pending stage" [| `Warm; `Measure |])),
         fun s -> s.s_pending )
    |+ (int, fun s -> s.s_instrs0)
    |+ (f64, fun s -> s.s_cycles0)
    |+ (int, fun s -> s.s_l1a0)
    |+ (int, fun s -> s.s_l1m0)
    |+ (int, fun s -> s.s_l2a0)
    |+ (int, fun s -> s.s_l2m0)
    |+ (predictor, fun s -> s.s_predictor)
    |+ (int, fun s -> s.s_prev_phase)
    |+ (option int, fun s -> s.s_pending_prediction)
    |+ (int, fun s -> s.s_n_tunings)
    |+ (int_array, fun s -> s.s_reconfigs)
    |+ (bool, fun s -> s.s_finalized)
    |> seal

  let sample_config =
    record (fun warmup repeats cov_bound recalibrate_every ->
        { Sample.warmup; repeats; cov_bound; recalibrate_every })
    |+ (int, fun c -> c.Sample.warmup)
    |+ (int, fun c -> c.repeats)
    |+ (f64, fun c -> c.cov_bound)
    |+ (int, fun c -> c.recalibrate_every)
    |> seal

  let meta =
    record (fun workload scheme scale seed hot_threshold with_issue_queue bbv_prediction
        resilient fault_rate checkpoint_every sample ->
        { workload; scheme; scale; seed; hot_threshold; with_issue_queue; bbv_prediction;
          resilient; fault_rate; checkpoint_every; sample })
    |+ (string, fun m -> m.workload)
    |+ (enum "scheme" [| Baseline; Hotspot; Bbv |], fun m -> m.scheme)
    |+ (f64, fun m -> m.scale)
    |+ (int, fun m -> m.seed)
    |+ (int, fun m -> m.hot_threshold)
    |+ (bool, fun m -> m.with_issue_queue)
    |+ (bool, fun m -> m.bbv_prediction)
    |+ (bool, fun m -> m.resilient)
    |+ (option f64, fun m -> m.fault_rate)
    |+ (int, fun m -> m.checkpoint_every)
    |+ (option sample_config, fun m -> m.sample)
    |> seal

  (* Observability sink state.  Events are the bulk of a Full-level
     snapshot: their encoder is one [match] with no intermediate values. *)

  let obs_kind =
    variant "obs event"
      (fun b -> function
        | Obs.Phase_enter { id; name } -> tag b 0; int.enc b id; string.enc b name
        | Phase_exit { id; ipc } -> tag b 1; int.enc b id; f64.enc b ipc
        | Hotspot_promoted { id; name } -> tag b 2; int.enc b id; string.enc b name
        | Recompile { id } -> tag b 3; int.enc b id
        | Trial_start { id; cfg } -> tag b 4; int.enc b id; string.enc b cfg
        | Trial_result { id; cfg; energy; ipc } ->
            tag b 5; int.enc b id; string.enc b cfg; f64.enc b energy; f64.enc b ipc
        | Burn_in { id; left } -> tag b 6; int.enc b id; int.enc b left
        | Tuning_finished { id; best; tested } ->
            tag b 7; int.enc b id; string.enc b best; int.enc b tested
        | Drift_sample { id; ipc; ref_ipc } ->
            tag b 8; int.enc b id; f64.enc b ipc; f64.enc b ref_ipc
        | Retune { id; drift } -> tag b 9; int.enc b id; f64.enc b drift
        | Quarantine { id } -> tag b 10; int.enc b id
        | Cu_failed { cu } -> tag b 11; string.enc b cu
        | Cu_recovered { cu } -> tag b 12; string.enc b cu
        | Reconfig { cu; label; flushed } ->
            tag b 13; string.enc b cu; string.enc b label; int.enc b flushed
        | Fault { cu; what } -> tag b 14; string.enc b cu; string.enc b what
        | Ckpt_capture { bytes } -> tag b 15; int.enc b bytes
        | Ckpt_restore { instrs } -> tag b 16; int.enc b instrs
        | Job_state { id; state } -> tag b 17; int.enc b id; string.enc b state
        | Io_fault { op; path } -> tag b 18; string.enc b op; string.enc b path
        | Phase_splice { id; instrs } -> tag b 19; int.enc b id; int.enc b instrs)
      [|
        (fun d -> let id = int.dec d in Obs.Phase_enter { id; name = string.dec d });
        (fun d -> let id = int.dec d in Obs.Phase_exit { id; ipc = f64.dec d });
        (fun d -> let id = int.dec d in Obs.Hotspot_promoted { id; name = string.dec d });
        (fun d -> Obs.Recompile { id = int.dec d });
        (fun d -> let id = int.dec d in Obs.Trial_start { id; cfg = string.dec d });
        (fun d ->
          let id = int.dec d in
          let cfg = string.dec d in
          let energy = f64.dec d in
          Obs.Trial_result { id; cfg; energy; ipc = f64.dec d });
        (fun d -> let id = int.dec d in Obs.Burn_in { id; left = int.dec d });
        (fun d ->
          let id = int.dec d in
          let best = string.dec d in
          Obs.Tuning_finished { id; best; tested = int.dec d });
        (fun d ->
          let id = int.dec d in
          let ipc = f64.dec d in
          Obs.Drift_sample { id; ipc; ref_ipc = f64.dec d });
        (fun d -> let id = int.dec d in Obs.Retune { id; drift = f64.dec d });
        (fun d -> Obs.Quarantine { id = int.dec d });
        (fun d -> Obs.Cu_failed { cu = string.dec d });
        (fun d -> Obs.Cu_recovered { cu = string.dec d });
        (fun d ->
          let cu = string.dec d in
          let label = string.dec d in
          Obs.Reconfig { cu; label; flushed = int.dec d });
        (fun d -> let cu = string.dec d in Obs.Fault { cu; what = string.dec d });
        (fun d -> Obs.Ckpt_capture { bytes = int.dec d });
        (fun d -> Obs.Ckpt_restore { instrs = int.dec d });
        (fun d -> let id = int.dec d in Obs.Job_state { id; state = string.dec d });
        (fun d -> let op = string.dec d in Obs.Io_fault { op; path = string.dec d });
        (fun d -> let id = int.dec d in Obs.Phase_splice { id; instrs = int.dec d });
      |]

  let event =
    record (fun ts kind -> { Obs.ts; kind })
    |+ (int, fun e -> e.Obs.ts)
    |+ (obs_kind, fun e -> e.kind)
    |> seal

  let histogram =
    record (fun name bounds counts total sum -> (name, bounds, counts, total, sum))
    |+ (string, fun (name, _, _, _, _) -> name)
    |+ (f64_array, fun (_, bounds, _, _, _) -> bounds)
    |+ (int_array, fun (_, _, counts, _, _) -> counts)
    |+ (int, fun (_, _, _, total, _) -> total)
    |+ (f64, fun (_, _, _, _, sum) -> sum)
    |> seal

  let metrics =
    record (fun ms_counters ms_gauges ms_hists -> { Obs.ms_counters; ms_gauges; ms_hists })
    |+ (array (pair string int), fun m -> m.Obs.ms_counters)
    |+ (array (pair string f64), fun m -> m.ms_gauges)
    |+ (array histogram, fun m -> m.ms_hists)
    |> seal

  let obs =
    record (fun s_metrics s_events s_dropped -> { Obs.s_metrics; s_events; s_dropped })
    |+ (metrics, fun s -> s.Obs.s_metrics)
    |+ (array event, fun s -> s.s_events)
    |+ (int, fun s -> s.s_dropped)
    |> seal

  (* Phase-statistics sampler image. *)

  let key =
    variant "sample key"
      (fun b -> function
        | Sample.K_meth m -> tag b 0; int.enc b m
        | K_cluster c -> tag b 1; int.enc b c)
      [|
        (fun d -> Sample.K_meth (int.dec d));
        (fun d -> Sample.K_cluster (int.dec d));
      |]

  let hw_sig =
    record (fun hs_l1d_bytes hs_l2_bytes hs_ilp_bits hs_exposure_bits ->
        { Sample.hs_l1d_bytes; hs_l2_bytes; hs_ilp_bits; hs_exposure_bits })
    |+ (int, fun s -> s.Sample.hs_l1d_bytes)
    |+ (int, fun s -> s.hs_l2_bytes)
    |+ (i64, fun s -> s.hs_ilp_bits)
    |+ (i64, fun s -> s.hs_exposure_bits)
    |> seal

  let phase_entry =
    record (fun pe_key pe_sig pe_instrs pe_seen pe_cpi_sum pe_cpi_sumsq pe_counts
        pe_counts_instrs pe_poisoned pe_since_measure ->
        { Sample.pe_key; pe_sig; pe_instrs; pe_seen; pe_cpi_sum; pe_cpi_sumsq; pe_counts;
          pe_counts_instrs; pe_poisoned; pe_since_measure })
    |+ (key, fun e -> e.Sample.pe_key)
    |+ (hw_sig, fun e -> e.pe_sig)
    |+ (int, fun e -> e.pe_instrs)
    |+ (int, fun e -> e.pe_seen)
    |+ (f64, fun e -> e.pe_cpi_sum)
    |+ (f64, fun e -> e.pe_cpi_sumsq)
    |+ (counts, fun e -> e.pe_counts)
    |+ (int, fun e -> e.pe_counts_instrs)
    |+ (bool, fun e -> e.pe_poisoned)
    |+ (int, fun e -> e.pe_since_measure)
    |> seal

  let obs_frame =
    record (fun os_meth os_key os_sig os_instrs0 os_cycles0 os_counts0 os_resizes0
        os_dirty ->
        { Sample.os_meth; os_key; os_sig; os_instrs0; os_cycles0; os_counts0; os_resizes0;
          os_dirty })
    |+ (int, fun o -> o.Sample.os_meth)
    |+ (key, fun o -> o.os_key)
    |+ (hw_sig, fun o -> o.os_sig)
    |+ (int, fun o -> o.os_instrs0)
    |+ (f64, fun o -> o.os_cycles0)
    |+ (counts, fun o -> o.os_counts0)
    |+ (int, fun o -> o.os_resizes0)
    |+ (bool, fun o -> o.os_dirty)
    |> seal

  let sample_state =
    record (fun s_entries s_meth_instrs s_cluster_of_meth s_open s_fault_events0
        s_ff_instrs_active s_observations s_splices s_spliced_instrs s_blocked_quiescence
        s_blocked_unsettled s_blocked_open_obs s_blocked_poisoned ->
        { Sample.s_entries; s_meth_instrs; s_cluster_of_meth; s_open; s_fault_events0;
          s_ff_instrs_active; s_observations; s_splices; s_spliced_instrs;
          s_blocked_quiescence; s_blocked_unsettled; s_blocked_open_obs;
          s_blocked_poisoned })
    |+ (array phase_entry, fun s -> s.Sample.s_entries)
    |+ (array (pair int int), fun s -> s.s_meth_instrs)
    |+ (array (pair int int), fun s -> s.s_cluster_of_meth)
    |+ (array obs_frame, fun s -> s.s_open)
    |+ (int, fun s -> s.s_fault_events0)
    |+ (int, fun s -> s.s_ff_instrs_active)
    |+ (int, fun s -> s.s_observations)
    |+ (int, fun s -> s.s_splices)
    |+ (int, fun s -> s.s_spliced_instrs)
    |+ (int, fun s -> s.s_blocked_quiescence)
    |+ (int, fun s -> s.s_blocked_unsettled)
    |+ (int, fun s -> s.s_blocked_open_obs)
    |+ (int, fun s -> s.s_blocked_poisoned)
    |> seal

  let scheme_state =
    variant "scheme state"
      (fun b -> function
        | S_baseline -> tag b 0
        | S_hotspot fw -> tag b 1; framework.enc b fw
        | S_bbv sch -> tag b 2; bbv.enc b sch)
      [|
        (fun _ -> S_baseline);
        (fun d -> S_hotspot (framework.dec d));
        (fun d -> S_bbv (bbv.dec d));
      |]

  let snapshot =
    record (fun meta engine faults scheme_state obs sample_state ->
        { meta; engine; faults; scheme_state; obs; sample_state })
    |+ (meta, fun t -> t.meta)
    |+ (engine, fun t -> t.engine)
    |+ (option faults, fun t -> t.faults)
    |+ (scheme_state, fun t -> t.scheme_state)
    |+ (option obs, fun t -> t.obs)
    |+ (option sample_state, fun t -> t.sample_state)
    |> seal
end

(* Built on first use: a program that never checkpoints should not carry
   the codecs' closures in its heap. *)
let payload = Codec.delay (fun () -> let module P = Payload () in P.snapshot)

(* {2 Container format}

   magic "ACESNAP1" (8 bytes) | version u16 LE | payload length i64 LE |
   CRC-32 (IEEE) of the payload, i64 LE | payload bytes.

   The header is fixed-width so a truncated file is detected before any
   payload parsing, and the CRC covers exactly the bytes the decoder will
   read. *)

let magic = "ACESNAP1"
let version = 4
(* v3: sampling — meta config, engine ff state, sampler cache.
   v4: cluster-keyed sampler cache — variant keys, CPI statistics,
   per-method instruction lengths, cluster map, blocked counters. *)
let header_len = 8 + 2 + 8 + 8

(* The payload is encoded straight after a placeholder header, which is
   filled in once the payload's length and CRC are known: one full copy out
   of the buffer, and [write] uses those bytes as they are. *)
let encode_bytes t =
  let b = Buffer.create 65536 in
  Buffer.add_string b magic;
  Buffer.add_uint16_le b version;
  Buffer.add_int64_le b 0L;
  Buffer.add_int64_le b 0L;
  payload.enc b t;
  let data = Buffer.to_bytes b in
  let len = Bytes.length data - header_len in
  let crc = Crc32.update 0 (Bytes.unsafe_to_string data) ~pos:header_len ~len in
  Bytes.set_int64_le data 10 (Int64.of_int len);
  Bytes.set_int64_le data 18 (Int64.of_int crc);
  data

let encode t = Bytes.unsafe_to_string (encode_bytes t)

let decode s =
  let got = String.length s in
  if got < header_len then raise (Error (Truncated { expected = header_len; got }));
  if String.sub s 0 8 <> magic then raise (Error Bad_magic);
  let v = Char.code s.[8] lor (Char.code s.[9] lsl 8) in
  if v <> version then
    raise (Error (Version_skew { found = v; expected = version }));
  let payload_len = Int64.to_int (String.get_int64_le s 10) in
  if payload_len < 0 then
    raise (Error (Malformed (Printf.sprintf "negative payload length %d" payload_len)));
  (* Fewer bytes than declared is the torn-write signature; more bytes is a
     structurally impossible container. *)
  if got < header_len + payload_len then
    raise (Error (Truncated { expected = header_len + payload_len; got }));
  if got > header_len + payload_len then
    raise
      (Error
         (Malformed
            (Printf.sprintf "payload length %d does not match file size %d"
               payload_len got)));
  let crc_stored = Int64.to_int (String.get_int64_le s 18) in
  let crc = Crc32.update 0 s ~pos:header_len ~len:payload_len in
  if crc <> crc_stored then
    raise (Error (Crc_mismatch { stored = crc_stored; computed = crc }));
  try Codec.decode_string payload ~pos:header_len s
  with Codec.Error msg -> raise (Error (Malformed msg))

(* {2 File I/O} *)

let fallback_path path = path ^ ".1"

let write ?(io = Io.real) ?(faults = Faults.none) ?(obs = Obs.null) ~path t =
  let data = encode_bytes t in
  (* Storage-channel fault injection damages the bytes on their way to disk;
     the CRC then refuses them at read time and the reader falls back. *)
  ignore (Faults.maybe_corrupt_snapshot faults data);
  let tmp = path ^ ".tmp" in
  Io.write_file io tmp (Bytes.unsafe_to_string data);
  (* The tmp file must be on stable storage before it takes over the
     primary name: rename-before-fsync can leave [path] pointing at
     unwritten blocks after power loss. *)
  Io.fsync io tmp;
  (* Rotate: the previous snapshot survives as [path.1] so a corrupted or
     torn write of the newest snapshot never strands the run. *)
  if Io.exists io path then Io.rename io path (fallback_path path);
  Io.rename io tmp path;
  (* Ring-only by design: a metered checkpoint event would make a resumed
     run's metrics diverge from the uninterrupted run's.  Recorded after the
     rename, so the snapshot's own ring excludes its own capture. *)
  if Obs.tracing obs then
    Obs.record obs (Obs.Ckpt_capture { bytes = Bytes.length data })

let read ?(io = Io.real) ~path () =
  let data =
    try Io.read_file io path with
    | Sys_error msg -> raise (Error (Unreadable msg))
    | Io.Io_error _ as e ->
        raise (Error (Unreadable (Option.get (Io.error_message e))))
  in
  decode data

let read_with_fallback ?(io = Io.real) ~path () =
  match read ~io ~path () with
  | snap -> Some (snap, `Primary)
  | exception Error _ -> (
      let fb = fallback_path path in
      if not (Io.exists io fb) then None
      else match read ~io ~path:fb () with
        | snap -> Some (snap, `Fallback)
        | exception Error _ -> None)
