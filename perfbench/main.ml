(* The benchmark of record.  See README.md in this directory for the
   workloads, the metrics, their units and directions, and the layer map.

   ace_perf --workload NAME --seed N --seconds S --trace 0|1
   ace_perf --digest            (prints the seed-1 digest file)
   ace_perf --probe-server      (host-speed probes for the above, on request)

   The last stdout line is one JSON object with [correct], [attempted],
   [failed] and [metrics]; the lines before it are a human-readable report.
   One process, one thread, runs back to back (a closed loop); every run
   builds a fresh engine, so caches start cold in every run. *)

module A = Perfbench.Assembly
module Engine = Ace_vm.Engine
module Scheme = Ace_harness.Scheme
module Run = Ace_harness.Run
module Render = Ace_harness.Render
module Sample = Ace_sample.Sample
module Hierarchy = Ace_mem.Hierarchy
module Cache = Ace_mem.Cache
module Pattern = Ace_isa.Pattern
module Program = Ace_isa.Program
module Block = Ace_isa.Block
module Obs = Ace_obs.Obs
module Io = Ace_util.Io
module Snapshot = Ace_ckpt.Snapshot
module Workload = Ace_workloads.Workload
module Specjvm = Ace_workloads.Specjvm

let default_seed = 1
let checkpoint_every = 1_000_000

(* Workload build passes in a traced run; [workloads.build_s] is their
   median. *)
let build_passes = 51

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type kind = Suite_full | Suite_sampled | Durable

let kinds =
  [ ("suite-full", Suite_full); ("suite-sampled", Suite_sampled); ("durable-traced", Durable) ]

let kind_name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

type unit_ = { w : Workload.t; scheme : Scheme.t }

let schemes = [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ]
let cross ws ss = List.concat_map (fun w -> List.map (fun scheme -> { w; scheme }) ss) ws

let find name =
  match Specjvm.find name with Some w -> w | None -> invalid_arg name

let units = function
  | Suite_full | Suite_sampled -> cross Specjvm.all schemes
  | Durable ->
      cross (List.map find [ "compress"; "jess"; "mtrt" ]) [ Scheme.Hotspot; Scheme.Bbv ]

let sample_of = function
  | Suite_sampled -> Some Sample.default_config
  | Suite_full | Durable -> None

let mode_name = function
  | Suite_full -> "full"
  | Suite_sampled -> "sampled"
  | Durable -> "durable"

(* The suites run at the reproduction's scale.  A durable job at that
   scale takes 3-4 s, so a run would execute each job once; at a quarter
   of it a run executes each job about five times, and the per-job minimum
   drops the executions that neighbours slowed down (README.md, Timing). *)
let scale_of = function Suite_full | Suite_sampled -> 1.0 | Durable -> 0.25
let label u = u.w.Workload.name ^ "/" ^ Scheme.name u.scheme

let obs_of = function
  | Durable -> fun () -> Obs.create Obs.Full
  | Suite_full | Suite_sampled -> fun () -> Obs.null

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let now_ns = A.now_ns
let secs ns = float_of_int ns /. 1e9
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Checks, counted once per row (a run, or a run's reference): a row fails
   if any of its executions fails a check.  So the JSON's attempted and
   failed counts depend on the code and the seed alone, not on how many
   repeats the time budget allows. *)
let rows : (string, bool) Hashtbl.t = Hashtbl.create 64

let run_checked name checks =
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (what, _) -> Printf.printf "FAIL %s: %s\n%!" name what) bad;
  let ok = Option.value ~default:true (Hashtbl.find_opt rows name) in
  Hashtbl.replace rows name (ok && bad = [])

let attempted () = Hashtbl.length rows
let failed () = Hashtbl.fold (fun _ ok n -> if ok then n else n + 1) rows 0

(* ------------------------------------------------------------------ *)
(* The committed digest (seed 1, each workload's scale)                *)

type pinned = {
  p_instrs : int;
  p_cycles : float;
  p_l1d_nj : float;
  p_l2_nj : float;
  p_md5 : string;
}

let digest_line ~mode u (s : A.stats) =
  Printf.sprintf "%s %s %s %d %h %h %h %s" u.w.Workload.name (Scheme.name u.scheme)
    mode s.A.instrs s.A.cycles s.A.l1d_nj s.A.l2_nj (A.digest s)

let pinned =
  lazy
    (let tbl = Hashtbl.create 64 in
     String.split_on_char '\n' Digests.text
     |> List.iter (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ w; s; mode; i; c; l1; l2; md5 ] ->
                Hashtbl.replace tbl (w, s, mode)
                  {
                    p_instrs = int_of_string i;
                    p_cycles = float_of_string c;
                    p_l1d_nj = float_of_string l1;
                    p_l2_nj = float_of_string l2;
                    p_md5 = md5;
                  }
            | _ -> ());
     tbl)

let pinned_for ~seed ~mode u =
  if seed = default_seed then
    Hashtbl.find_opt (Lazy.force pinned) (u.w.Workload.name, Scheme.name u.scheme, mode)
  else None

(* At the default seed a row must have a committed digest, and the
   statistics must match it. *)
let digest_checks ~seed ~mode u (s : A.stats) =
  if seed = default_seed then
    match pinned_for ~seed ~mode u with
    | Some p -> [ ("statistics match the committed digest", A.digest s = p.p_md5) ]
    | None -> [ ("row has a committed digest", false) ]
  else []

(* ------------------------------------------------------------------ *)
(* Simulated summary metrics                                           *)

(* Suite averages of energy saving and slowdown against the fixed
   baseline, as EXPERIMENTS.md computes them (per benchmark, then the mean
   over benchmarks), printed beside the paper's Figure 3/4 averages with
   the error.  [get] returns (cycles, l1d nJ, l2 nJ) of a row; the result
   is the (hotspot, bbv) pair of (L1D %, L2 %, slowdown %) triples. *)
let print_savings ~get =
  let one name scheme (p1, p2, ps) =
    let per w =
      let c0, e10, e20 = get w Scheme.Fixed_baseline and c, e1, e2 = get w scheme in
      (100.0 *. (1.0 -. (e1 /. e10)), 100.0 *. (1.0 -. (e2 /. e20)), 100.0 *. ((c /. c0) -. 1.0))
    in
    let rows = List.map per Specjvm.all in
    let avg f = sum f rows /. float_of_int (List.length rows) in
    let l1 = avg (fun (a, _, _) -> a) and l2 = avg (fun (_, b, _) -> b) in
    let slow = avg (fun (_, _, c) -> c) in
    Printf.printf
      "%s: L1D saving %.2f %% (paper %.0f, error %+.2f), L2 saving %.2f %% (paper %.0f, \
       error %+.2f), slowdown %.2f %% (paper %.2f, error %+.2f)\n"
      name l1 p1 (l1 -. p1) l2 p2 (l2 -. p2) slow ps (slow -. ps);
    (l1, l2, slow)
  in
  let hotspot = one "hotspot" Scheme.Hotspot (47.0, 58.0, 1.56) in
  (hotspot, one "bbv" Scheme.Bbv (32.0, 52.0, 1.87))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ms =
  List.iter (fun x -> Printf.printf "%-32s %16.6f %s\n" x.name x.value x.unit) ms;
  let metrics =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed () = 0 && attempted () > 0)
    (max 1 (attempted ())) (failed ()) metrics

(* ------------------------------------------------------------------ *)
(* Durable runs: checkpointed, Full-obs, killed at mid-run, resumed     *)

type durable_hooks = {
  on_snapshot : Snapshot.t -> unit;
  on_boundary : total_instrs:int -> unit;
}

(* One kill-and-resume job on the in-memory filesystem.  Returns the
   resumed run's result, the resumed life's observability sink and the
   filesystem handle.  [read] wraps the resume-time snapshot read. *)
let durable_job ?hooks ?(io_wrap = fun io -> io) ?(read = fun f -> f ())
    ~scale ~seed ~kill_after u =
  let fs = Io.Mem.create () in
  let io = io_wrap (Io.Mem.io fs) in
  let path = "ckpt.snap" in
  let on_snapshot = Option.map (fun h -> h.on_snapshot) hooks
  and on_boundary = Option.map (fun h -> h.on_boundary) hooks in
  match
    Run.run_checkpointed ~io ~scale ~seed ~obs:(Obs.create Obs.Full) ~kill_after
      ?on_snapshot ?on_boundary ~checkpoint_every ~path u.w u.scheme
  with
  | Run.Completed _ -> Error "run was not killed"
  | Run.Killed_at _ -> (
      match read (fun () -> Snapshot.read_with_fallback ~io ~path ()) with
      | None | Some (_, `Fallback) -> Error "no primary snapshot to resume from"
      | Some (snap, `Primary) -> (
          let obs = Obs.create Obs.Full in
          match
            Run.resume_from_snapshot ~io ?on_snapshot ?on_boundary ~path ~obs snap
          with
          | Run.Killed_at _ -> Error "resumed run was killed"
          | Run.Completed r -> Ok (r, obs, io)))

(* The exported Chrome trace goes to the same in-memory filesystem. *)
let export io obs = Io.write_file io "trace.json" (Ace_obs.Export.chrome obs)

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)

(* The shared machine changes speed as a whole for minutes at a time
   (README.md, Host).  A fixed probe that does not use the simulator runs
   about once a second between executions, and the host-time end-to-end
   metrics are scaled by the median probe time against [probe_ref_s]: they
   read as on a host where one probe takes [probe_ref_s] of CPU time.  The
   probe does the kind of work the simulator's host time goes to:
   allocation, pointer chasing, hashing and sorting, in a heap that peaks
   at about 1.4 MB. *)
let probe_ref_s = 0.08
let probe_every_s = 1.0

type cell = { key : int; mutable hits : int; next : cell option }

let probe () =
  let acc = ref 0 in
  for round = 1 to 5 do
    let cells = ref None in
    for i = 1 to 20_000 do
      cells := Some { key = ((i * 7919) + round) land 0xffff; hits = i; next = !cells }
    done;
    let tbl = Hashtbl.create 4096 in
    let rec walk = function
      | None -> ()
      | Some c ->
          Hashtbl.replace tbl c.key c;
          c.hits <- c.hits + 1;
          walk c.next
    in
    walk !cells;
    for i = 1 to 20_000 do
      match Hashtbl.find_opt tbl ((i * 31) land 0xffff) with
      | Some c -> acc := !acc + c.hits
      | None -> ()
    done;
    let a = Array.init 20_000 (fun i -> (i * 104729) land 0xfffff) in
    Array.sort compare a;
    acc := !acc + a.(100)
  done;
  ignore (Sys.opaque_identity !acc)

(* [--probe-server]: one probe per line read on stdin, printing each
   probe's CPU time, until stdin closes. *)
let probe_server () =
  try
    while true do
      ignore (input_line stdin);
      let c0 = Sys.time () in
      probe ();
      Printf.printf "%h\n%!" (Sys.time () -. c0)
    done
  with End_of_file -> ()

(* The probes run in a child process (this executable with
   [--probe-server]), so that their heap neither adds to this process's
   [top_heap_mb] nor leaves garbage for the next execution.  The child
   lives for the whole run, so its heap is warm after the first probe.
   Only one of the two processes runs at a time. *)
type prober = { pid : int; requests : out_channel; replies : in_channel }

let start_prober () =
  let child_in, requests = Unix.pipe ~cloexec:true () in
  let replies, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe-server" |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  {
    pid;
    requests = Unix.out_channel_of_descr requests;
    replies = Unix.in_channel_of_descr replies;
  }

(* CPU time of one probe. *)
let time_probe p =
  output_char p.requests '\n';
  flush p.requests;
  float_of_string (input_line p.replies)

let stop_prober p =
  close_out_noerr p.requests;
  close_in_noerr p.replies;
  ignore (Unix.waitpid [] p.pid)

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0)                                          *)

type exec = {
  u : unit_;
  mutable setup_ns : float list;  (** Host time of every execution's set-up. *)
  mutable run_s : float list;  (** Process CPU time of every execution. *)
  mutable words : float;  (** Minor words of the first execution. *)
  mutable first : A.stats option;  (** Suite workloads: first execution. *)
}

(* Uninterrupted full-simulation reference of one run, through [Run.run]
   and outside the timed region.  Durable references are pinned in the
   digest's durable rows, at the durable scale. *)
let reference_run ~kind ~seed u =
  let mode = if kind = Durable then "durable" else "full" in
  let r = Run.run ~scale:(scale_of kind) ~seed u.w u.scheme in
  let checks =
    match pinned_for ~seed ~mode u with
    | Some p ->
        [
          ( "reference Run.run matches the committed digest",
            r.Run.instrs = p.p_instrs && r.Run.cycles = p.p_cycles
            && r.Run.l1d_energy_nj = p.p_l1d_nj && r.Run.l2_energy_nj = p.p_l2_nj );
        ]
    | None -> []
  in
  run_checked ("reference " ^ label u) checks;
  (u, r)

let end_to_end ~kind ~seed ~seconds =
  let us = units kind in
  let sample = sample_of kind and obs = obs_of kind in
  let mode = mode_name kind and scale = scale_of kind in
  (* Durable jobs are killed at the midpoint of their reference, so those
     references run first; [top_heap_mb] then includes them (README.md).
     Sampled runs are compared with theirs after the timed loop. *)
  let refs = if kind = Durable then List.map (reference_run ~kind ~seed) us else [] in
  Gc.compact ();
  let execs =
    Array.of_list (List.map (fun u -> { u; setup_ns = []; run_s = []; words = 0.0; first = None }) us)
  in
  let n = Array.length execs in
  (* The peak heap of one whole pass: later repeats depend on the time
     budget, so reading it there keeps it a function of the seed. *)
  let top_heap_mb = ref 0.0 in
  let prober = start_prober () in
  Fun.protect ~finally:(fun () -> stop_prober prober) @@ fun () ->
  (* Two untimed probes warm the child's heap. *)
  ignore (time_probe prober);
  ignore (time_probe prober);
  let t_start = now_ns () in
  let probes = ref [] and next_probe = ref t_start in
  let i = ref 0 in
  while !i < n || secs (now_ns () - t_start) < float_of_int seconds do
    let e = execs.(!i mod n) in
    let u = e.u in
    if now_ns () >= !next_probe then begin
      probes := time_probe prober :: !probes;
      next_probe := now_ns () + int_of_float (probe_every_s *. 1e9)
    end;
    (* Clear the previous execution's garbage before set-up. *)
    Gc.full_major ();
    (* Durable jobs set themselves up inside [Run.run_checkpointed]; their
       set-up is timed on the same assembly, which is then dropped.  The
       sink is made before the clock starts: a [Full] sink allocates its
       65,536-event ring, which is not part of the set-up measured. *)
    let sink = obs () in
    let t0 = now_ns () in
    let inst = A.setup ~obs:sink ~scale ~seed ~sample u.w u.scheme in
    e.setup_ns <- float_of_int (now_ns () - t0) :: e.setup_ns;
    let w0 = Gc.minor_words () in
    let c0 = Sys.time () in
    let timed () =
      e.run_s <- (Sys.time () -. c0) :: e.run_s;
      if !i < n then e.words <- Gc.minor_words () -. w0
    in
    let checks =
      match kind with
      | Suite_full | Suite_sampled -> (
          Engine.run inst.A.engine;
          let s = A.finish inst in
          timed ();
          match e.first with
          | Some s0 -> [ ("repeat run has identical statistics", A.canonical s = A.canonical s0) ]
          | None ->
              e.first <- Some s;
              digest_checks ~seed ~mode u s)
      | Durable -> (
          let full = List.assq u refs in
          let outcome = durable_job ~scale ~seed ~kill_after:(full.Run.instrs / 2) u in
          Result.iter (fun (_, obs, io) -> export io obs) outcome;
          timed ();
          match outcome with
          | Error why -> [ (why, false) ]
          | Ok (r, _, _) ->
              [
                ( "resumed summary is byte-identical to the uninterrupted run's",
                  Render.summary r = Render.summary full );
              ])
    in
    run_checked (label u) checks;
    incr i;
    if !i = n then
      top_heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  done;
  let elapsed = secs (now_ns () - t_start) in
  let refs = if kind = Suite_sampled then List.map (reference_run ~kind ~seed) us else refs in
  let reference u = List.assq u refs in
  let execs = Array.to_list execs in
  if kind = Suite_sampled then
    List.iter
      (fun e ->
        run_checked (label e.u)
          [
            ( "sampled run retires the full run's instruction count",
              (Option.get e.first).A.instrs = (reference e.u).Run.instrs );
          ])
      execs;
  let instrs e =
    match e.first with Some s -> s.A.instrs | None -> (reference e.u).Run.instrs
  in
  let total_instrs = float_of_int (isum instrs execs) in
  (* Each run's fastest execution: neighbours on a shared machine only ever
     add time, and CPU time already leaves out time spent descheduled. *)
  let timed_s = sum (fun e -> List.fold_left Float.min Float.infinity e.run_s) execs in
  let words = sum (fun e -> e.words) execs in
  let mips = total_instrs /. timed_s /. 1e6 in
  let setup_s = sum (fun e -> median e.setup_ns /. 1e9) execs in
  let probe_s = median !probes in
  let slowdown = probe_s /. probe_ref_s in
  Printf.printf "workload %s: scale %g, seed %d, %d runs, %d executions in %.1f s\n"
    (kind_name kind)
    scale seed n !i elapsed;
  Printf.printf
    "host speed: median probe %.4f s over %d probes (reference %.2f s); unscaled: %.3f MIPS, \
     set-up %.6f s\n"
    probe_s (List.length !probes) probe_ref_s mips setup_s;
  if kind <> Durable then begin
    let get w scheme =
      let s = Option.get (List.find (fun e -> e.u.w == w && e.u.scheme = scheme) execs).first in
      (s.A.cycles, s.A.l1d_nj, s.A.l2_nj)
    in
    ignore (print_savings ~get)
  end;
  (* Sampling error: mean over rows of |Δcycles|, |ΔL1D energy| and |ΔL2
     energy| against full simulation, in %.  Full-simulation workloads are
     their own reference, so their accuracy is exactly 100 %. *)
  let err =
    if kind <> Suite_sampled then 0.0
    else
      let rel a b = 100.0 *. Float.abs ((a /. b) -. 1.0) in
      let per e =
        let s = Option.get e.first and r = reference e.u in
        (rel s.A.cycles r.Run.cycles +. rel s.A.l1d_nj r.Run.l1d_energy_nj
        +. rel s.A.l2_nj r.Run.l2_energy_nj)
        /. 3.0
      in
      sum per execs /. float_of_int n
  in
  Printf.printf "sampling error vs full simulation: %.4f %% (accuracy %.4f %%)\n" err (100.0 -. err);
  print_result
    [
      m "sim_mips" "MIPS" (mips *. slowdown);
      m "setup_s" "s" (setup_s /. slowdown);
      m "minor_words_per_instr" "words/instr" (words /. total_instrs);
      m "top_heap_mb" "MB" !top_heap_mb;
      m "pass_frac" "ratio"
        (1.0 -. ratio (float_of_int (failed ())) (float_of_int (max 1 (attempted ()))));
      m "sample_acc_pct" "%" (100.0 -. err);
    ]

(* ------------------------------------------------------------------ *)
(* Pattern / hierarchy replay over the workloads' own block patterns   *)

(* Dynamic executions of every static block in one run: the enclosing
   method's invocation count times the statement's repetition count. *)
let block_weights (p : Program.t) =
  let inv = Program.invocation_counts p in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (meth : Program.meth) ->
      List.iter
        (function
          | Program.Exec (b, n) ->
              let prev = Option.value ~default:(b, 0) (Hashtbl.find_opt tbl b.Block.id) in
              Hashtbl.replace tbl b.Block.id (b, snd prev + (inv.(meth.Program.id) * n))
          | Program.Call _ -> ())
        meth.Program.body)
    p.Program.methods;
  Hashtbl.fold (fun _ bw acc -> bw :: acc) tbl []
  |> List.sort (fun ((a : Block.t), _) (b, _) -> compare a.Block.id b.Block.id)

(* Addresses replayed per program. *)
let replay_budget = 2_000_000
let chunk = 4096

type replay = {
  mutable pattern_ns : int;
  mutable pattern_words : float;
  mutable addrs : int;
  mutable mem_ns : int;
  mutable accesses : int;
  mutable l1d_misses : int;
}

(* Each block runs a share of the budget proportional to its dynamic
   memory operations (at least one execution), in program block order, in
   the engine's batch shape: [Pattern.next_batch] fills whole repetitions,
   [Hierarchy.data_access_batch] consumes them.  Pattern cost is measured
   in a first pass without the hierarchy (so minor words are the
   pattern's alone), hierarchy cost in a second pass. *)
let replay acc ~seed (p : Program.t) =
  let blocks = List.filter (fun ((b : Block.t), _) -> Block.memory_ops b > 0) (block_weights p) in
  let total = isum (fun ((b : Block.t), n) -> n * Block.memory_ops b) blocks in
  let plan =
    List.map
      (fun ((b : Block.t), n) ->
        let share = float_of_int (n * Block.memory_ops b) /. float_of_int (max 1 total) in
        (b, max 1 (int_of_float (share *. float_of_int replay_budget) / Block.memory_ops b)))
      blocks
  in
  let sweep f =
    let rng = Ace_util.Rng.create ~seed in
    List.iter
      (fun ((b : Block.t), reps) ->
        let cursor = Pattern.cursor b.Block.pattern in
        let per_rep = Block.memory_ops b in
        let chunk_reps = max 1 (chunk / per_rep) in
        let left = ref reps in
        while !left > 0 do
          let r = min !left chunk_reps in
          left := !left - r;
          f b cursor rng (r * per_rep)
        done)
      plan
  in
  let big = ref (Array.make chunk 0) in
  let ensure n = if Array.length !big < n then big := Array.make n 0 in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  sweep (fun _ cursor rng n ->
      ensure n;
      Pattern.next_batch cursor ~rng !big ~pos:0 ~n;
      acc.addrs <- acc.addrs + n);
  acc.pattern_ns <- acc.pattern_ns + (now_ns () - t0);
  acc.pattern_words <- acc.pattern_words +. (Gc.minor_words () -. w0);
  let hier = Hierarchy.create () in
  sweep (fun b cursor rng n ->
      ensure n;
      Pattern.next_batch cursor ~rng !big ~pos:0 ~n;
      let t0 = now_ns () in
      ignore
        (Hierarchy.data_access_batch hier ~addrs:!big ~n ~loads:b.Block.loads
           ~stores:b.Block.stores);
      acc.mem_ns <- acc.mem_ns + (now_ns () - t0));
  let l1d = Hierarchy.l1d hier in
  acc.accesses <- acc.accesses + Cache.Stats.accesses l1d;
  acc.l1d_misses <- acc.l1d_misses + Cache.Stats.misses l1d

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1)                                              *)

let traced ~kind ~seed =
  let us = units kind in
  let sample = sample_of kind and obs = obs_of kind in
  let mode = mode_name kind and scale = scale_of kind in
  (* Workload build alone, median over passes. *)
  let build_s =
    median
      (List.init build_passes (fun _ ->
           let t0 = now_ns () in
           List.iter (fun u -> ignore (u.w.Workload.build ~scale ~seed)) us;
           secs (now_ns () - t0)))
  in
  (* Interleaved per unit, alternating which goes first: the untraced
     [Run.run], and the same run assembled with every hook and the sampler
     guard wrapped. *)
  let untraced_ns = ref 0 and traced_ns = ref 0 and run_ns = ref 0 in
  let untraced u () =
    let t0 = now_ns () in
    let r = Run.run ~scale ~seed ?sample ~obs:(obs ()) u.w u.scheme in
    untraced_ns := !untraced_ns + (now_ns () - t0);
    r
  in
  let traced_run u () =
    let t0 = now_ns () in
    let probes = A.fresh_probes () in
    let inst = A.setup ~probes ~obs:(obs ()) ~scale ~seed ~sample u.w u.scheme in
    let t1 = now_ns () in
    Engine.run inst.A.engine;
    run_ns := !run_ns + (now_ns () - t1);
    let s = A.finish inst in
    traced_ns := !traced_ns + (now_ns () - t0);
    (s, probes)
  in
  let runs =
    List.mapi
      (fun i u ->
        let r, (s, probes) =
          if i mod 2 = 0 then
            let r = untraced u () in
            (r, traced_run u ())
          else
            let t = traced_run u () in
            (untraced u (), t)
        in
        let same =
          s.A.instrs = r.Run.instrs && s.A.cycles = r.Run.cycles
          && s.A.overhead_instrs = r.Run.overhead_instrs
          && s.A.l1d_nj = r.Run.l1d_energy_nj && s.A.l2_nj = r.Run.l2_energy_nj
          && s.A.sample = r.Run.sample
        in
        run_checked (label u)
          (("traced statistics equal the untraced Run.run's", same)
          :: digest_checks ~seed ~mode u s);
        (u, s, probes, r))
      us
  in
  let rows = List.map (fun (u, s, p, _) -> (u, s, p)) runs in
  let on scheme f = isum (fun (u, s, p) -> if u.scheme = scheme then f s p else 0) rows in
  let all f = isum (fun (_, s, p) -> f s p) rows in
  let hook_ns p = p.A.entry.A.ns + p.A.exit.A.ns + p.A.promoted.A.ns + p.A.recompile.A.ns in
  let hook_calls p =
    p.A.entry.A.calls + p.A.exit.A.calls + p.A.promoted.A.calls + p.A.recompile.A.calls
  in
  let wrapped_ns p = hook_ns p + p.A.block.A.ns + p.A.interval.A.ns + p.A.guard.A.ns in
  let instrs = all (fun s _ -> s.A.instrs) in
  let self_ns = !run_ns - all (fun _ p -> wrapped_ns p) in
  let fw_ns = on Scheme.Hotspot (fun _ p -> hook_ns p) in
  let fw_calls = on Scheme.Hotspot (fun _ p -> hook_calls p) in
  let sample_stat f =
    isum (fun (_, s, _) -> match s.A.sample with Some st -> f st | None -> 0) rows
  in
  let c f = all (fun s _ -> f s.A.counts) in
  let l1d_acc = c (fun c -> c.Hierarchy.c_l1d_accesses) in
  let l2_acc = c (fun c -> c.Hierarchy.c_l2_accesses) in
  (* Replay over each distinct benchmark's own program. *)
  let acc =
    { pattern_ns = 0; pattern_words = 0.0; addrs = 0; mem_ns = 0; accesses = 0; l1d_misses = 0 }
  in
  List.sort_uniq compare (List.map (fun u -> u.w.Workload.name) us)
  |> List.iter (fun name -> replay acc ~seed ((find name).Workload.build ~scale ~seed));
  (* Durable: the checkpointed kill-and-resume pass, with the snapshot
     write bracketed from [on_snapshot] to the next [on_boundary]. *)
  let snapshots = ref 0 and write_ns = ref 0 and read_ns = ref 0 and export_ns = ref 0 in
  let ops = ref 0 and events = ref 0 and dropped = ref 0 in
  let encode_ns = ref [] and decode_ns = ref [] and bytes = ref [] in
  if kind = Durable then
    List.iter
      (fun (u, s, _, reference) ->
        let opened = ref None and last = ref None in
        let hooks =
          {
            on_snapshot =
              (fun snap ->
                incr snapshots;
                last := Some snap;
                opened := Some (now_ns ()));
            on_boundary =
              (fun ~total_instrs:_ ->
                match !opened with
                | Some t0 ->
                    write_ns := !write_ns + (now_ns () - t0);
                    opened := None
                | None -> ());
          }
        in
        let recorded = ref (fun () -> [||]) in
        let io_wrap io =
          let io, ops = Io.recording io in
          recorded := ops;
          io
        in
        let read f =
          let t0 = now_ns () in
          let v = f () in
          read_ns := !read_ns + (now_ns () - t0);
          v
        in
        match durable_job ~hooks ~io_wrap ~read ~scale ~seed ~kill_after:(s.A.instrs / 2) u with
        | Error why -> run_checked (label u ^ " (checkpointed)") [ (why, false) ]
        | Ok (r, o, io) ->
            let t0 = now_ns () in
            export io o;
            export_ns := !export_ns + (now_ns () - t0);
            ops := !ops + Array.length (!recorded ());
            events := !events + Obs.event_count o;
            dropped := !dropped + Obs.dropped o;
            Option.iter
              (fun snap ->
                let time f =
                  median
                    (List.init 3 (fun _ ->
                         let t0 = now_ns () in
                         f ();
                         float_of_int (now_ns () - t0)))
                in
                let data = Snapshot.encode snap in
                bytes := float_of_int (String.length data) :: !bytes;
                encode_ns := time (fun () -> ignore (Snapshot.encode snap)) :: !encode_ns;
                decode_ns := time (fun () -> ignore (Snapshot.decode data)) :: !decode_ns)
              !last;
            run_checked (label u ^ " (checkpointed)")
              [
                ( "resumed summary is byte-identical to the uninterrupted run's",
                  Render.summary r = Render.summary reference );
              ])
      runs;
  (* The schemes' suite outcomes: simulated, but too seed-sensitive to
     hold an end-to-end bound (see README.md).  Suite workloads only. *)
  let (h1, h2, hs), (b1, b2, bs) =
    match kind with
    | Durable -> ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    | Suite_full | Suite_sampled ->
        let get w scheme =
          let _, s, _ = List.find (fun (u, _, _) -> u.w == w && u.scheme = scheme) rows in
          (s.A.cycles, s.A.l1d_nj, s.A.l2_nj)
        in
        print_savings ~get
  in
  let f = float_of_int in
  let overhead_pct = 100.0 *. ((f !traced_ns /. f !untraced_ns) -. 1.0) in
  Printf.printf "workload %s (traced): scale %g, seed %d, %d units\n"
    (kind_name kind)
    scale seed (List.length us);
  Printf.printf "DO overhead charged by the engine (paper Table 1): %d simulated instrs on hotspot rows, host hook time %.3f s\n"
    (on Scheme.Hotspot (fun s _ -> s.A.overhead_instrs)) (secs fw_ns);
  print_result
    [
      m "workloads.build_s" "s" build_s;
      m "engine.run_s" "s" (secs !run_ns);
      m "engine.self_s" "s" (secs self_ns);
      m "engine.self_ns_per_instr" "ns" (ratio (f self_ns) (f instrs));
      m "engine.instrs" "count" (f instrs);
      m "engine.method_entries" "count" (f (all (fun _ p -> p.A.entry.A.calls)));
      m "engine.block_batches" "count" (f (all (fun _ p -> p.A.block.A.calls)));
      m "pattern.ns_per_addr" "ns" (ratio (f acc.pattern_ns) (f acc.addrs));
      m "pattern.words_per_addr" "words" (ratio acc.pattern_words (f acc.addrs));
      m "pattern.addrs" "count" (f acc.addrs);
      m "mem.ns_per_access" "ns" (ratio (f acc.mem_ns) (f acc.accesses));
      m "mem.accesses" "count" (f l1d_acc);
      m "mem.l1d_miss_rate" "ratio"
        (1.0 -. ratio (f (c (fun c -> c.Hierarchy.c_l1d_hits))) (f l1d_acc));
      m "mem.l2_miss_rate" "ratio"
        (1.0 -. ratio (f (c (fun c -> c.Hierarchy.c_l2_hits))) (f l2_acc));
      m "mem.replay_l1d_miss_rate" "ratio" (ratio (f acc.l1d_misses) (f acc.accesses));
      m "mem.resizes" "count" (f (all (fun s _ -> s.A.resizes)));
      m "framework.hook_s" "s" (secs fw_ns);
      m "framework.hook_calls" "count" (f fw_calls);
      m "framework.ns_per_call" "ns" (ratio (f fw_ns) (f fw_calls));
      m "framework.tunings" "count" (f (on Scheme.Hotspot (fun s _ -> s.A.tunings)));
      m "framework.reconfigs" "count" (f (on Scheme.Hotspot (fun s _ -> s.A.reconfigs)));
      m "framework.sim_overhead_instrs" "count"
        (f (on Scheme.Hotspot (fun s _ -> s.A.overhead_instrs)));
      m "hotspot_l1d_saving_pct" "%" h1;
      m "hotspot_l2_saving_pct" "%" h2;
      m "hotspot_slowdown_pct" "%" hs;
      m "bbv.block_s" "s" (secs (on Scheme.Bbv (fun _ p -> p.A.block.A.ns)));
      m "bbv.block_calls" "count" (f (on Scheme.Bbv (fun _ p -> p.A.block.A.calls)));
      m "bbv.interval_s" "s" (secs (on Scheme.Bbv (fun _ p -> p.A.interval.A.ns)));
      m "bbv.intervals" "count" (f (on Scheme.Bbv (fun _ p -> p.A.interval.A.calls)));
      m "bbv.phases" "count" (f (on Scheme.Bbv (fun s _ -> s.A.phases)));
      m "bbv.tunings" "count" (f (on Scheme.Bbv (fun s _ -> s.A.tunings)));
      m "bbv_l1d_saving_pct" "%" b1;
      m "bbv_l2_saving_pct" "%" b2;
      m "bbv_slowdown_pct" "%" bs;
      m "sample.guard_s" "s" (secs (all (fun _ p -> p.A.guard.A.ns)));
      m "sample.guard_calls" "count" (f (all (fun _ p -> p.A.guard.A.calls)));
      m "sample.spliced_frac" "ratio"
        (ratio (f (sample_stat (fun st -> st.Sample.spliced_instrs))) (f instrs));
      m "sample.splices" "count" (f (sample_stat (fun st -> st.Sample.splices)));
      m "sample.observations" "count" (f (sample_stat (fun st -> st.Sample.observations)));
      m "sample.blocked_quiescence" "count"
        (f (sample_stat (fun st -> st.Sample.blocked_quiescence)));
      m "sample.blocked_unsettled" "count"
        (f (sample_stat (fun st -> st.Sample.blocked_unsettled)));
      m "sample.blocked_open_obs" "count"
        (f (sample_stat (fun st -> st.Sample.blocked_open_obs)));
      m "sample.blocked_poisoned" "count"
        (f (sample_stat (fun st -> st.Sample.blocked_poisoned)));
      m "ckpt.snapshots" "count" (f !snapshots);
      m "ckpt.bytes_per_snapshot" "B" (median !bytes);
      m "ckpt.write_s" "s" (secs !write_ns);
      m "ckpt.encode_ns" "ns" (median !encode_ns);
      m "ckpt.decode_ns" "ns" (median !decode_ns);
      m "ckpt.resume_read_s" "s" (secs !read_ns);
      m "io.ops" "count" (f !ops);
      m "obs.events" "count" (f !events);
      m "obs.dropped" "count" (f !dropped);
      m "obs.export_s" "s" (secs !export_ns);
      m "trace.overhead_pct" "%" overhead_pct;
    ]

(* ------------------------------------------------------------------ *)
(* Digest regeneration                                                 *)

let print_digest () =
  print_endline
    "# ace_perf --digest: seed 1, scale 1 (durable 0.25); workload scheme mode instrs cycles \
     l1d_nj l2_nj md5";
  List.iter
    (fun kind ->
      List.iter
        (fun u ->
          let inst =
            A.setup ~scale:(scale_of kind) ~seed:default_seed ~sample:(sample_of kind) u.w
              u.scheme
          in
          Engine.run inst.A.engine;
          print_endline (digest_line ~mode:(mode_name kind) u (A.finish inst)))
        (units kind))
    [ Suite_full; Suite_sampled; Durable ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "ace_perf --workload suite-full|suite-sampled|durable-traced --seed N --seconds S --trace 0|1\n\
   ace_perf --digest"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20 in
  let trace = ref 0 and digest = ref false and server = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--digest", Arg.Set digest, " print the seed-1 digest file");
      ("--probe-server", Arg.Set server, " run host-speed probes on request (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !digest then print_digest ()
  else if !server then probe_server ()
  else
    match List.assoc_opt !workload kinds with
    | None ->
        prerr_endline usage;
        exit 2
    | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
        prerr_endline usage;
        exit 2
    | Some kind ->
        if !trace = 1 then traced ~kind ~seed:!seed
        else end_to_end ~kind ~seed:!seed ~seconds:!seconds
