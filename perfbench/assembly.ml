(* One simulator run, assembled from the simulator's public modules in the
   order [Ace_harness.Run.run] uses: build the workload, [Engine.create],
   attach the scheme, attach the sampler with the scheme's guard, run,
   finalize.  The benchmark assembles runs itself (rather than calling
   [Run.run]) so it can time set-up apart from execution and, in a traced
   run, wrap the engine's hooks and the sampler's guard with host-clock
   accumulators.  [test_perfbench.ml] checks that this copy yields the same
   statistics as [Run.run]. *)

module Engine = Ace_vm.Engine
module Framework = Ace_core.Framework
module Cu = Ace_core.Cu
module Bbv = Ace_bbv.Scheme
module Sample = Ace_sample.Sample
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache
module Accounting = Ace_power.Accounting
module Scheme = Ace_harness.Scheme
module Run = Ace_harness.Run
module Obs = Ace_obs.Obs
module Workload = Ace_workloads.Workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Host time spent inside one wrapped call site, and how often it ran. *)
type probe = { mutable ns : int; mutable calls : int }

type probes = {
  entry : probe;
  exit : probe;
  promoted : probe;
  recompile : probe;
  block : probe;
  interval : probe;
  guard : probe;
}

let fresh_probe () = { ns = 0; calls = 0 }

let fresh_probes () =
  {
    entry = fresh_probe ();
    exit = fresh_probe ();
    promoted = fresh_probe ();
    recompile = fresh_probe ();
    block = fresh_probe ();
    interval = fresh_probe ();
    guard = fresh_probe ();
  }

let charge p t0 =
  p.ns <- p.ns + (now_ns () - t0);
  p.calls <- p.calls + 1

type attached = A_baseline | A_hotspot of Framework.t | A_bbv of Bbv.t

type t = {
  program : Ace_isa.Program.t;
  engine : Engine.t;
  attached : attached;
  sampler : Sample.t option;
}

(* The sampler guards [Run] installs, verbatim in effect: the hotspot
   scheme uses scoped quiescence, BBV its global quiescence plus the
   tracker's cluster id as the record key. *)
let guard = function
  | A_baseline -> ((fun ~meth_id:_ -> Sample.Allow), None)
  | A_hotspot fw ->
      ( (fun ~meth_id ->
          if not (Framework.hotspot_settled fw ~meth_id) then Sample.Unsettled
          else if Framework.measuring_open fw > 0 || Framework.unsettled_active fw
          then Sample.Not_quiescent
          else Sample.Allow),
        None )
  | A_bbv sch ->
      ( (fun ~meth_id:_ ->
          if Bbv.quiescent sch then Sample.Allow else Sample.Not_quiescent),
        Some
          (fun () ->
            let c = Ace_bbv.Tracker.current_phase (Bbv.tracker sch) in
            if c < 0 then None else Some c) )

let wrap_hooks p engine =
  let h = Engine.hooks engine in
  let entry = h.Engine.on_method_entry
  and exit = h.Engine.on_method_exit
  and promoted = h.Engine.on_hotspot_promoted
  and recompile = h.Engine.on_recompile
  and block = h.Engine.on_block
  and interval = h.Engine.on_interval in
  h.Engine.on_method_entry <-
    (fun ~meth_id ->
      let t0 = now_ns () in
      entry ~meth_id;
      charge p.entry t0);
  h.Engine.on_method_exit <-
    (fun ~meth_id prof ->
      let t0 = now_ns () in
      exit ~meth_id prof;
      charge p.exit t0);
  h.Engine.on_hotspot_promoted <-
    (fun ~meth_id ->
      let t0 = now_ns () in
      promoted ~meth_id;
      charge p.promoted t0);
  h.Engine.on_recompile <-
    (fun ~meth_id ->
      let t0 = now_ns () in
      recompile ~meth_id;
      charge p.recompile t0);
  h.Engine.on_block <-
    (fun ~pc ~instrs ~count ->
      let t0 = now_ns () in
      block ~pc ~instrs ~count;
      charge p.block t0);
  h.Engine.on_interval <-
    (fun ~total_instrs ->
      let t0 = now_ns () in
      interval ~total_instrs;
      charge p.interval t0)

(* Everything up to (not including) [Engine.run]: the part [setup_s]
   measures.  With [probes], every engine hook and the sampler guard is
   wrapped after all attaches, so each accumulator sees the full chain the
   scheme and sampler installed. *)
let setup ?probes ?(obs = Obs.null) ~scale ~seed ~sample (w : Workload.t) scheme
    =
  let program = w.Workload.build ~scale ~seed in
  let interval =
    match scheme with Scheme.Bbv -> Some Run.bbv_interval | _ -> None
  in
  let config =
    {
      Engine.default_config with
      Engine.seed;
      hot_threshold = Run.default_hot_threshold;
      interval_instrs = interval;
    }
  in
  let engine = Engine.create ~config ~obs program in
  let attached =
    match scheme with
    | Scheme.Fixed_baseline -> A_baseline
    | Scheme.Hotspot ->
        A_hotspot
          (Framework.attach ~obs engine ~cus:[| Cu.l1d engine; Cu.l2 engine |])
    | Scheme.Bbv -> A_bbv (Bbv.attach engine ~cus:[| Cu.l1d engine; Cu.l2 engine |])
  in
  let sampler =
    Option.map
      (fun config ->
        let allow, classify = guard attached in
        let allow =
          match probes with
          | None -> allow
          | Some p ->
              fun ~meth_id ->
                let t0 = now_ns () in
                let v = allow ~meth_id in
                charge p.guard t0;
                v
        in
        Sample.attach ~config ~obs ?classify ~allow engine)
      sample
  in
  Option.iter (fun p -> wrap_hooks p engine) probes;
  { program; engine; attached; sampler }

(* The simulated statistics of a finished run: everything the committed
   digest pins, plus the per-layer counts a traced run reports. *)
type stats = {
  instrs : int;
  cycles : float;
  overhead_instrs : int;
  l1d_nj : float;
  l2_nj : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  counts : Hierarchy.counts;
  resizes : int;  (** L1D plus L2 capacity changes. *)
  tunings : int;  (** Configuration trials (framework or BBV). *)
  reconfigs : int;  (** Selected-configuration applications, all CUs. *)
  phases : int;  (** BBV phases; 0 for the other schemes. *)
  sample : Sample.stats option;
}

(* The fixed baseline's single-epoch accounting, as [Run] closes it. *)
let fixed_accounting engine =
  let hier = Engine.hierarchy engine in
  let close family cache =
    let a =
      Accounting.create family ~initial_size:(Cache.config cache).Cache.size_bytes
    in
    Accounting.finish a
      ~accesses_now:(Cache.Stats.accesses cache)
      ~cycles_now:(Engine.cycles engine);
    a
  in
  ( close Ace_power.Energy_model.L1d (Hierarchy.l1d hier),
    close Ace_power.Energy_model.L2 (Hierarchy.l2 hier) )

let pair get x =
  match (get x 0, get x 1) with
  | Some a, Some b -> (a, b)
  | _ -> invalid_arg "Assembly.finish: cache CU without energy accounting"

let finish t =
  let engine = t.engine in
  let (a1, a2), tunings, reconfigs, phases =
    match t.attached with
    | A_baseline -> (fixed_accounting engine, 0, 0, 0)
    | A_hotspot fw ->
        Framework.finalize fw;
        let reps = Framework.report fw in
        let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reps in
        ( pair Framework.accounting fw,
          sum (fun r -> r.Framework.tunings),
          sum (fun r -> r.Framework.reconfigs),
          0 )
    | A_bbv sch ->
        Bbv.finalize sch;
        ( pair Bbv.accounting sch,
          Bbv.tunings sch,
          Array.fold_left ( + ) 0 (Bbv.reconfigs_per_cu sch),
          Bbv.phase_count sch )
  in
  let hier = Engine.hierarchy engine in
  let l1d = Hierarchy.l1d hier and l2 = Hierarchy.l2 hier in
  {
    instrs = Engine.instrs engine;
    cycles = Engine.cycles engine;
    overhead_instrs = Engine.overhead_instrs engine;
    l1d_nj = Accounting.total_nj a1;
    l2_nj = Accounting.total_nj a2;
    l1d_miss_rate = Cache.Stats.miss_rate l1d;
    l2_miss_rate = Cache.Stats.miss_rate l2;
    counts = Hierarchy.counts hier;
    resizes = Cache.Stats.resizes l1d + Cache.Stats.resizes l2;
    tunings;
    reconfigs;
    phases;
    sample = Option.map Sample.stats t.sampler;
  }

(* Canonical, exact rendering of the statistics the digest pins: floats in
   hexadecimal so no rounding can hide a change. *)
let canonical s =
  let c = s.counts in
  let b = Buffer.create 256 in
  Printf.bprintf b "instrs=%d cycles=%h overhead=%d l1d_nj=%h l2_nj=%h" s.instrs
    s.cycles s.overhead_instrs s.l1d_nj s.l2_nj;
  Printf.bprintf b
    " l1i=%d/%d/%d l1d=%d/%d/%d l2=%d/%d/%d tlb=%d/%d mem=%d/%d resizes=%d"
    c.Hierarchy.c_l1i_accesses c.c_l1i_hits c.c_l1i_writebacks c.c_l1d_accesses
    c.c_l1d_hits c.c_l1d_writebacks c.c_l2_accesses c.c_l2_hits c.c_l2_writebacks
    c.c_tlb_accesses c.c_tlb_misses c.c_mem_reads c.c_mem_writebacks s.resizes;
  Printf.bprintf b " tunings=%d reconfigs=%d phases=%d" s.tunings s.reconfigs
    s.phases;
  Option.iter
    (fun (m : Sample.stats) ->
      Printf.bprintf b " sample=%d/%d/%d/%d" m.Sample.observations m.splices
        m.spliced_instrs m.known_phases)
    s.sample;
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string (canonical s))
