(* The observability subsystem: sink semantics (levels, ring bounds,
   registry idempotence, zero-cost off path), exporter golden structure,
   and the end-to-end invariants the design promises — monotone timelines
   for any seeded run, and checkpoint/resume metrics identity. *)

module Obs = Ace_obs.Obs
module Export = Ace_obs.Export
module Run = Ace_harness.Run
module Scheme = Ace_harness.Scheme

let compress () = Option.get (Ace_workloads.Specjvm.find "compress")

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: %S not found in output" what needle

(* A Full sink with a manual clock, for building timelines by hand. *)
let clocked ?capacity () =
  let obs = Obs.create ?capacity Obs.Full in
  let tick = ref 0 in
  Obs.set_clock obs (fun () -> !tick);
  (obs, tick)

(* -- sink semantics -------------------------------------------------- *)

let test_ring_bounded () =
  let obs, tick = clocked ~capacity:8 () in
  for i = 1 to 20 do
    tick := i;
    Obs.record obs (Obs.Recompile { id = i })
  done;
  Alcotest.(check int) "retained at capacity" 8 (Obs.event_count obs);
  Alcotest.(check int) "overwrites counted" 12 (Obs.dropped obs);
  (match Obs.events obs with
  | { Obs.ts = 13; kind = Obs.Recompile { id = 13 } } :: _ -> ()
  | _ -> Alcotest.fail "oldest retained event should be #13");
  let last = List.nth (Obs.events obs) 7 in
  Alcotest.(check int) "newest retained" 20 last.Obs.ts

let test_registry_idempotent () =
  let obs = Obs.create Obs.Metrics in
  let a = Obs.counter obs "x.same" in
  let b = Obs.counter obs "x.same" in
  Obs.incr obs a;
  Obs.incr obs b;
  Alcotest.(check int) "one shared cell" 2 (Obs.counter_value a);
  Alcotest.(check int) "registered once"
    1
    (List.length
       (List.filter
          (function Obs.M_counter ("x.same", _) -> true | _ -> false)
          (Obs.metrics obs)));
  let names =
    List.map
      (function
        | Obs.M_counter (n, _) | Obs.M_gauge (n, _) | Obs.M_histogram (n, _, _, _, _)
          -> n)
      (Obs.metrics obs)
  in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names

let test_histogram_buckets () =
  let obs = Obs.create Obs.Metrics in
  let h = Obs.histogram obs "h" ~bounds:[| 1.0; 2.0 |] in
  List.iter (fun v -> Obs.observe obs h v) [ 0.5; 1.0; 1.5; 5.0 ];
  (match Obs.metrics obs with
  | [ Obs.M_histogram ("h", _, counts, total, sum) ] ->
      Alcotest.(check (array int)) "inclusive edges + overflow" [| 2; 1; 1 |] counts;
      Alcotest.(check int) "total" 4 total;
      Alcotest.(check (float 1e-9)) "sum" 8.0 sum
  | _ -> Alcotest.fail "expected exactly the one histogram");
  match Obs.histogram obs "bad" ~bounds:[| 2.0; 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing bounds accepted"

let test_off_sink_inert () =
  let obs = Obs.null in
  let c = Obs.counter obs "x" in
  let g = Obs.gauge obs "g" in
  Obs.incr obs c;
  Obs.set_gauge obs g 1.0;
  Obs.record obs (Obs.Recompile { id = 1 });
  Obs.set_clock obs (fun () -> 42);
  Alcotest.(check int) "nothing registered" 0 (List.length (Obs.metrics obs));
  Alcotest.(check int) "nothing recorded" 0 (Obs.event_count obs);
  Alcotest.(check int) "cell untouched" 0 (Obs.counter_value c);
  Alcotest.(check int) "clock untouched" 0 (Obs.now obs);
  Alcotest.(check bool) "capture empty" true (Obs.capture obs = None)

(* The always-on promise: emitting against an Off sink must not allocate,
   or leaving instrumentation in hot paths would tax every ordinary run.
   The emission loop mirrors how producers are written: ungated incr,
   gated float/event emissions. *)
let test_off_path_allocation_free () =
  let obs = Obs.null in
  let c = Obs.counter obs "x" in
  let g = Obs.gauge obs "g" in
  let h = Obs.histogram obs "h" ~bounds:[| 1.0 |] in
  for i = 1 to 100 do
    Obs.incr obs c;
    ignore (Sys.opaque_identity i)
  done;
  let before = Gc.minor_words () in
  for i = 1 to 1_000_000 do
    Obs.incr obs c;
    if Obs.enabled obs then begin
      Obs.set_gauge obs g (float_of_int i);
      Obs.observe obs h (float_of_int i)
    end;
    if Obs.tracing obs then
      Obs.record obs (Obs.Phase_enter { id = i; name = "hot" })
  done;
  let delta = Gc.minor_words () -. before in
  if delta >= 256.0 then
    Alcotest.failf "off-path emissions allocated %.0f minor words" delta

(* -- exporters ------------------------------------------------------- *)

let test_chrome_structure_and_escaping () =
  let obs, tick = clocked () in
  let name = "m\"1\n" in
  tick := 100;
  Obs.record obs (Obs.Hotspot_promoted { id = 1; name });
  Obs.record obs (Obs.Phase_enter { id = 1; name });
  tick := 300;
  Obs.record obs (Obs.Phase_exit { id = 1; ipc = 1.5 });
  tick := 400;
  Obs.record obs (Obs.Trial_start { id = 1; cfg = "0/1" });
  let s = Export.chrome obs in
  check_contains "container" s "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  check_contains "escaped method name" s "m\\\"1\\n";
  check_contains "phase span" s "\"ph\":\"X\",\"ts\":100,\"dur\":200";
  check_contains "phase ipc arg" s "\"ipc\":1.5";
  check_contains "thread metadata" s
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0";
  (* The un-resulted trial is closed at the last event's timestamp. *)
  check_contains "leftover trial span" s
    "{\"name\":\"0/1\",\"ph\":\"X\",\"ts\":400,\"dur\":0";
  (* Structural sanity stands in for a JSON parser: balanced braces and a
     closing array. *)
  let balance =
    String.fold_left
      (fun n c -> if c = '{' then n + 1 else if c = '}' then n - 1 else n)
      0 s
  in
  Alcotest.(check int) "balanced braces" 0 balance;
  check_contains "closed array" s "\n]}\n"

let test_csv_header_and_escaping () =
  let obs, tick = clocked () in
  tick := 5;
  Obs.record obs (Obs.Reconfig { cu = "L1D"; label = "32KB"; flushed = 7 });
  tick := 9;
  Obs.record obs (Obs.Fault { cu = "hw"; what = "say \"hi\", friend" });
  let s = Export.csv obs in
  (match String.split_on_char '\n' s with
  | header :: rows ->
      Alcotest.(check string) "header is stable" "ts,kind,id,label,a,b" header;
      Alcotest.(check (list string))
        "rows quote and double"
        [
          "5,reconfig,,L1D=32KB,7,";
          "9,fault,,\"hw:say \"\"hi\"\", friend\",,";
          "";
        ]
        rows
  | [] -> Alcotest.fail "empty csv");
  let m = Obs.create Obs.Metrics in
  let h = Obs.histogram m "lat" ~bounds:[| 1.0; 2.0 |] in
  Obs.observe m h 1.5;
  Obs.incr m (Obs.counter m "hits");
  Alcotest.(check string)
    "metrics csv shape"
    "metric,type,value\n\
     hits,counter,1\n\
     lat.le_1,bucket,0\n\
     lat.le_2,bucket,1\n\
     lat.le_inf,bucket,0\n\
     lat.count,count,1\n\
     lat.sum,sum,1.5\n"
    (Export.metrics_csv m)

let test_report_smoke () =
  let obs = Obs.create Obs.Full in
  let (_ : Run.result) =
    Run.run ~scale:0.1 ~seed:1 ~obs (compress ()) Scheme.Hotspot
  in
  let s = Export.report obs in
  check_contains "title" s "ACE observability report";
  check_contains "activity section" s "cache resizes";
  check_contains "metrics section" s "engine.method_entries";
  check_contains "timeline tail" s "timeline tail"

(* -- whole-run invariants -------------------------------------------- *)

(* Any seeded run, any scheme: the exported timeline's timestamps are
   non-decreasing, because every event reads the engine's one monotone
   instruction counter. *)
let prop_timestamps_monotone =
  QCheck.Test.make ~count:6 ~name:"timeline timestamps are monotone"
    QCheck.(pair small_nat (oneofl [ Scheme.Fixed_baseline; Scheme.Hotspot ]))
    (fun (seed, scheme) ->
      let obs = Obs.create Obs.Full in
      let w =
        Ace_workloads.Synthetic.workload
          { Ace_workloads.Synthetic.default with n_phases = 2; phase_repeats = 3 }
      in
      let (_ : Run.result) = Run.run ~scale:1.0 ~seed:(seed + 1) ~obs w scheme in
      let evs = Obs.events obs in
      evs <> []
      && fst
           (List.fold_left
              (fun (ok, prev) ev -> (ok && ev.Obs.ts >= prev, ev.Obs.ts))
              (true, 0) evs))

let test_capture_restore_roundtrip () =
  let obs, tick = clocked ~capacity:4 () in
  let c = Obs.counter obs "c" in
  let h = Obs.histogram obs "h" ~bounds:[| 1.0 |] in
  Obs.incr obs c;
  Obs.observe obs h 0.5;
  for i = 1 to 6 do
    tick := i;
    Obs.record obs (Obs.Recompile { id = i })
  done;
  let st = Obs.capture obs in
  Alcotest.(check bool) "full sink captures" true (st <> None);
  let obs2 = Obs.create ~capacity:4 Obs.Full in
  Obs.restore obs2 st;
  Alcotest.(check bool) "metrics identical" true
    (Obs.metrics obs2 = Obs.metrics obs);
  Alcotest.(check bool) "events identical" true
    (Obs.events obs2 = Obs.events obs);
  Alcotest.(check int) "drop count carried" (Obs.dropped obs) (Obs.dropped obs2);
  Alcotest.(check bool) "capture is pure data" true (Obs.capture obs2 = st)

(* The headline acceptance invariant, at the API level: kill a checkpointed
   run mid-flight, resume it from disk, and the metrics summary must be
   byte-identical to the uninterrupted run's.  Also: the resumed sink's
   timeline reaches back before the kill (the ring rode in the snapshot)
   and carries the Ckpt_restore marker. *)
let test_resume_metrics_identity () =
  let path = Filename.temp_file "ace_obs_test" ".snap" in
  let cleanup () =
    List.iter
      (fun s -> if Sys.file_exists (path ^ s) then Sys.remove (path ^ s))
      [ ""; ".1"; ".tmp" ]
  in
  let obs_full = Obs.create Obs.Full in
  (match
     Run.run_checkpointed ~scale:0.2 ~seed:3 ~obs:obs_full
       ~checkpoint_every:2_000_000 ~path (compress ()) Scheme.Hotspot
   with
  | Run.Completed _ -> ()
  | Run.Killed_at _ -> Alcotest.fail "uninterrupted run was killed");
  let reference = Export.metrics_csv obs_full in
  cleanup ();
  let obs_kill = Obs.create Obs.Full in
  (match
     Run.run_checkpointed ~scale:0.2 ~seed:3 ~obs:obs_kill ~kill_after:5_000_000
       ~checkpoint_every:2_000_000 ~path (compress ()) Scheme.Hotspot
   with
  | Run.Killed_at _ -> ()
  | Run.Completed _ -> Alcotest.fail "kill_after did not kill");
  let obs_resumed = Obs.create Obs.Full in
  (match Run.resume_run ~obs:obs_resumed ~path () with
  | Some (Run.Completed _, `Primary) -> ()
  | _ -> Alcotest.fail "resume did not complete from the primary snapshot");
  cleanup ();
  Alcotest.(check string) "resumed metrics are byte-identical" reference
    (Export.metrics_csv obs_resumed);
  let evs = Obs.events obs_resumed in
  let restore_ts =
    List.fold_left
      (fun acc ev ->
        match ev.Obs.kind with Obs.Ckpt_restore _ -> Some ev.Obs.ts | _ -> acc)
      None evs
  in
  (match restore_ts with
  | None -> Alcotest.fail "resumed timeline lacks the Ckpt_restore marker"
  | Some ts ->
      Alcotest.(check bool) "timeline reaches back before the kill" true
        (List.exists (fun ev -> ev.Obs.ts < ts) evs));
  check_contains "restore visible in trace" (Export.chrome obs_resumed)
    "ckpt_restore"

let test_capture_allocation () =
  (* Capture copies the retained ring into the state's array directly; an
     intermediate list would cost about 3 minor words per event on every
     snapshot. *)
  let n = 10_000 in
  let obs = Obs.create ~capacity:n Obs.Full in
  for i = 1 to n do
    Obs.record obs (Obs.Recompile { id = i })
  done;
  let before = Gc.minor_words () in
  let s = Obs.capture obs in
  let delta = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity s);
  let per_event = delta /. float_of_int n in
  if per_event >= 0.5 then
    Alcotest.failf "capture allocated %.2f minor words per event" per_event

let suite =
  [
    Tu.case "ring is bounded and counts drops" test_ring_bounded;
    Tu.case "registry registration is idempotent" test_registry_idempotent;
    Tu.case "histogram bucket edges" test_histogram_buckets;
    Tu.case "off sink is inert" test_off_sink_inert;
    Tu.case "off path allocates nothing" test_off_path_allocation_free;
    Tu.case "chrome export structure + escaping" test_chrome_structure_and_escaping;
    Tu.case "csv exports: headers + escaping" test_csv_header_and_escaping;
    Tu.slow_case "report smoke" test_report_smoke;
    Tu.qcheck prop_timestamps_monotone;
    Tu.case "capture/restore roundtrip" test_capture_restore_roundtrip;
    Tu.slow_case "kill/resume metrics identity + seamless timeline"
      test_resume_metrics_identity;
    Tu.case "capture allocates under 0.5 minor words per event"
      test_capture_allocation;
  ]
