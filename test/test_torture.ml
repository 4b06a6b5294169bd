(* The injectable Io layer and the crash-point torture harness.

   The unit half pins down the simulated filesystem's crash semantics
   (data volatile until fsync, metadata journaled), the crash-at and
   fault wrappers' determinism, and the two cleanup satellites (sorted
   spool scans, exception-proof scratch cleanup).  The slow half runs the
   real torture matrix at one seed and requires a clean sheet. *)

module Io = Ace_util.Io
module Mem = Ace_util.Io.Mem
module Scratch = Ace_util.Scratch
module Faults = Ace_faults.Faults
module Spool = Ace_serve.Spool
module Protocol = Ace_serve.Protocol
module Torture = Ace_serve.Torture
module Crash = Ace_harness.Crash

(* ------------------------------------------------------------------ *)
(* Mem backend crash semantics                                         *)
(* ------------------------------------------------------------------ *)

let test_mem_drop_loses_unsynced_data () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  Io.write_file io "/a" "hello";
  Alcotest.(check string) "visible before crash" "hello" (Io.read_file io "/a");
  Mem.crash `Drop fs;
  (* Creation is metadata (survives); the bytes were never synced. *)
  Alcotest.(check bool) "file still exists" true (Io.exists io "/a");
  Alcotest.(check string) "data gone" "" (Io.read_file io "/a")

let test_mem_fsync_makes_data_durable () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  Io.write_file io "/a" "hello";
  Io.fsync io "/a";
  Io.write_file io "/a" "hello, rewritten";
  Mem.crash `Drop fs;
  Alcotest.(check string) "synced image survives" "hello" (Io.read_file io "/a")

let test_mem_keep_flushes_everything () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  Io.write_file io "/a" "hello";
  Mem.crash `Keep fs;
  Alcotest.(check string) "lucky crash keeps data" "hello" (Io.read_file io "/a")

let test_mem_rename_carries_durable_image () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  Io.write_file io "/tmp1" "payload";
  Io.fsync io "/tmp1";
  Io.rename io "/tmp1" "/final";
  Mem.crash `Drop fs;
  Alcotest.(check bool) "old name gone" false (Io.exists io "/tmp1");
  Alcotest.(check string) "new name has synced bytes" "payload"
    (Io.read_file io "/final")

let test_mem_rename_without_fsync_is_a_husk () =
  (* The failure mode the snapshot writer's fsync exists to prevent:
     rename-before-sync publishes a durable name with volatile bytes. *)
  let fs = Mem.create () in
  let io = Mem.io fs in
  Io.write_file io "/tmp1" "payload";
  Io.rename io "/tmp1" "/final";
  Mem.crash `Drop fs;
  Alcotest.(check bool) "name survives" true (Io.exists io "/final");
  Alcotest.(check string) "bytes do not" "" (Io.read_file io "/final")

let test_mem_dirs_and_readdir () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  Io.mkdir io "/d";
  Io.write_file io "/d/b" "1";
  Io.write_file io "/d/a" "2";
  Alcotest.(check (array string)) "sorted entries" [| "a"; "b" |] (Io.readdir io "/d");
  (match Io.rmdir io "/d" with
  | () -> Alcotest.fail "rmdir of non-empty dir should fail"
  | exception Io.Io_error _ -> ());
  Io.remove io "/d/a";
  Io.remove io "/d/b";
  Io.rmdir io "/d";
  Alcotest.(check bool) "dir gone" false (Io.exists io "/d")

(* ------------------------------------------------------------------ *)
(* crash_at                                                            *)
(* ------------------------------------------------------------------ *)

let test_crash_at_kills_exactly_once () =
  let fs = Mem.create () in
  let io = Io.crash_at ~at:2 (Mem.io fs) in
  Io.write_file io "/a" "1";
  Io.write_file io "/b" "2";
  (match Io.write_file io "/c" "3" with
  | () -> Alcotest.fail "third mutation should crash"
  | exception Io.Crashed -> ());
  (* The process is dead: even reads refuse. *)
  (match Io.read_file io "/a" with
  | _ -> Alcotest.fail "read after crash should refuse"
  | exception Io.Crashed -> ());
  (* The filesystem itself is fine — a fresh handle sees pre-crash state. *)
  let after = Mem.io fs in
  Alcotest.(check string) "b landed" "2" (Io.read_file after "/b");
  Alcotest.(check bool) "c never landed" false (Io.exists after "/c")

let test_crash_at_torn_write_leaves_prefix () =
  let fs = Mem.create () in
  let io = Io.crash_at ~at:0 ~torn:true (Mem.io fs) in
  (match Io.write_file io "/a" "abcdef" with
  | () -> Alcotest.fail "should crash"
  | exception Io.Crashed -> ());
  Alcotest.(check string) "half the bytes landed" "abc"
    (Io.read_file (Mem.io fs) "/a")

let test_crash_at_reads_are_not_boundaries () =
  let fs = Mem.create () in
  let pre = Mem.io fs in
  Io.write_file pre "/a" "x";
  let io = Io.crash_at ~at:1 pre in
  Io.write_file io "/b" "1";
  ignore (Io.read_file io "/a");
  ignore (Io.exists io "/a");
  (match Io.write_file io "/c" "2" with
  | () -> Alcotest.fail "second mutation should crash"
  | exception Io.Crashed -> ())

(* ------------------------------------------------------------------ *)
(* faulty / enospc_while / recording                                   *)
(* ------------------------------------------------------------------ *)

let test_faulty_is_deterministic () =
  let trace seed =
    let fs = Mem.create () in
    let io = Io.faulty ~seed (Io.fault_preset ~rate:0.3) (Mem.io fs) in
    List.init 40 (fun i ->
        match Io.write_file io (Printf.sprintf "/f%d" i) "data" with
        | () -> "ok"
        | exception Io.Io_error { err; _ } -> Io.err_to_string err)
  in
  Alcotest.(check (list string)) "same seed, same faults" (trace 7) (trace 7);
  Alcotest.(check bool) "some faults fired" true
    (List.exists (fun o -> o <> "ok") (trace 7));
  Alcotest.(check bool) "different seed, different schedule" true
    (trace 7 <> trace 8)

let test_faulty_zero_rate_is_passthrough () =
  let fs = Mem.create () in
  let io = Io.faulty ~seed:1 Io.no_io_faults (Mem.io fs) in
  for i = 0 to 99 do
    Io.write_file io (Printf.sprintf "/f%d" i) "data";
    Io.fsync io (Printf.sprintf "/f%d" i)
  done;
  Alcotest.(check string) "all writes landed" "data" (Io.read_file io "/f99")

let test_storage_io_stream_is_seeded () =
  let trace seed =
    let fs = Mem.create () in
    let io = Faults.storage_io ~seed ~rate:0.4 (Mem.io fs) in
    List.init 30 (fun i ->
        match Io.write_file io (Printf.sprintf "/f%d" i) "data" with
        | () -> "ok"
        | exception Io.Io_error { err; _ } -> Io.err_to_string err)
  in
  Alcotest.(check (list string)) "reproducible" (trace 2005) (trace 2005);
  Alcotest.(check bool) "faults present" true
    (List.exists (fun o -> o <> "ok") (trace 2005))

let test_enospc_while_recovers () =
  let fs = Mem.create () in
  let full = ref true in
  let io = Io.enospc_while (fun () -> !full) (Mem.io fs) in
  (match Io.write_file io "/a" "x" with
  | () -> Alcotest.fail "write on a full disk should fail"
  | exception Io.Io_error { err = Io.Enospc; _ } -> ());
  full := false;
  Io.write_file io "/a" "x";
  Alcotest.(check string) "space returned" "x" (Io.read_file io "/a")

let test_recording_counts_mutations_only () =
  let fs = Mem.create () in
  let io, ops = Io.recording (Mem.io fs) in
  Io.mkdir io "/d";
  Io.write_file io "/d/a" "1";
  Io.fsync io "/d/a";
  ignore (Io.read_file io "/d/a");
  ignore (Io.readdir io "/d");
  Io.rename io "/d/a" "/d/b";
  Io.remove io "/d/b";
  Io.rmdir io "/d";
  let kinds =
    Array.to_list (Array.map (fun (o : Io.op) -> Io.op_kind_name o.Io.op_kind) (ops ()))
  in
  Alcotest.(check (list string))
    "mutating ops in order"
    [ "mkdir"; "write"; "fsync"; "rename"; "remove"; "rmdir" ]
    kinds

(* ------------------------------------------------------------------ *)
(* Satellite: Spool.scan is readdir-order independent                  *)
(* ------------------------------------------------------------------ *)

let test_spool_scan_shuffled_readdir () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  let dir = "/spool" in
  Spool.ensure_dir ~io dir;
  let spec i = Protocol.job_spec ~seed:i ~workload:"compress" Ace_harness.Scheme.Hotspot in
  List.iter (fun i -> Spool.write_spec ~io ~dir i (spec i)) [ 5; 2; 9; 1; 7 ];
  Spool.write_result ~io ~dir 2 "out";
  Spool.write_failed ~io ~dir 7 "boom";
  let reference = Spool.scan ~io ~dir () in
  Alcotest.(check (list int)) "pending sorted" [ 1; 5; 9 ]
    (List.map (fun (e : Spool.entry) -> e.Spool.id) reference.Spool.pending);
  Alcotest.(check int) "next id" 10 reference.Spool.next_id;
  (* An adversarial filesystem returning entries in any order must yield
     the identical scan. *)
  for seed = 1 to 20 do
    let scan = Spool.scan ~io:(Io.shuffled_readdir ~seed io) ~dir () in
    Alcotest.(check bool)
      (Printf.sprintf "scan under shuffle %d" seed)
      true (scan = reference)
  done

(* ------------------------------------------------------------------ *)
(* Satellite: Scratch cleanup survives mid-cleanup failures            *)
(* ------------------------------------------------------------------ *)

let test_scratch_remove_existing_skips_failures () =
  let fs = Mem.create () in
  let io = Mem.io fs in
  List.iter (fun p -> Io.write_file io p "x") [ "/a"; "/b"; "/c" ];
  (* Every remove fails; none of the failures escapes or aborts the loop. *)
  let all_fail =
    Io.faulty ~seed:1 { Io.no_io_faults with Io.remove_eio_p = 1.0 } io
  in
  Scratch.remove_existing ~io:all_fail [ "/a"; "/b"; "/c" ];
  Alcotest.(check bool) "nothing removed, nothing raised" true
    (Io.exists io "/a" && Io.exists io "/b" && Io.exists io "/c");
  Scratch.remove_existing ~io [ "/a"; "/b"; "/c" ];
  Alcotest.(check bool) "clean backend removes all" false (Io.exists io "/b")

let prop_scratch_with_temp_dir_cleanup =
  QCheck.Test.make ~name:"with_temp_dir cleans up under any failure sequence"
    ~count:200
    QCheck.(pair (int_range 0 8) (int_bound 10_000))
    (fun (n_files, seed) ->
      let fs = Mem.create () in
      let plain = Mem.io fs in
      let faulty_io =
        Io.faulty ~seed
          { Io.no_io_faults with Io.remove_eio_p = 0.4; Io.read_eio_p = 0.1 }
          plain
      in
      let created = ref [] in
      (try
         Scratch.with_temp_dir ~io:faulty_io (fun dir ->
             for i = 1 to n_files do
               let p = Filename.concat dir (Printf.sprintf "f%d" i) in
               Io.write_file plain p "data";
               created := p :: !created
             done;
             if seed mod 3 = 0 then failwith "user code raised")
       with Failure _ -> ());
      (* The property: cleanup never raises (guards are per-entry and
         per-op), and every file a non-faulty remove could delete is
         gone — i.e. the only survivors are ones whose removal faulted. *)
      let survivors = List.filter (Io.exists plain) !created in
      (* Re-run cleanup with a clean backend: everything must be removable
         (nothing is left in a wedged state). *)
      List.iter (fun p -> if Io.exists plain p then Io.remove plain p) survivors;
      List.for_all (fun p -> not (Io.exists plain p)) !created)

(* ------------------------------------------------------------------ *)
(* Satellite: snapshot .1-rotation fallback goldens                    *)
(* (torn-primary cases live in test_ckpt; the full matrix is below)    *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The torture matrix itself                                           *)
(* ------------------------------------------------------------------ *)

(* The seed-1 matrix, pinned byte for byte: every count per recovery class
   is part of the harness's behaviour, not only the violation total. *)
let pinned_matrix =
  "+----------+------+--------+------+---------+----------+---------+--------+------------+\n" ^
  "| scenario | seed | points | torn | primary | fallback | scratch | absent | violations |\n" ^
  "+----------+------+--------+------+---------+----------+---------+--------+------------+\n" ^
  "| snapshot |    1 |     25 |    3 |      14 |        4 |       7 |      0 |          0 |\n" ^
  "| spool    |    1 |     45 |    5 |      21 |        4 |       7 |      9 |          0 |\n" ^
  "+----------+------+--------+------+---------+----------+---------+--------+------------+\n" ^
  "| total    |      |     70 |    8 |      35 |        8 |      14 |      9 |          0 |\n" ^
  "+----------+------+--------+------+---------+----------+---------+--------+------------+\n" ^
  "torture: 70 crash points, 0 violations\n"

let test_torture_matrix_is_clean () =
  let tallies = Torture.run_matrix ~seeds:[ 1 ] () in
  Alcotest.(check string) "pinned matrix" pinned_matrix
    (Crash.render "torture" tallies);
  List.iter
    (fun (t : Crash.report) ->
      List.iter (fun v -> Printf.eprintf "VIOLATION: %s\n" v) (List.rev t.violations))
    tallies;
  Alcotest.(check int) "zero violations" 0 (Crash.total_violations tallies);
  Alcotest.(check bool) "both scenarios enumerated" true
    (List.length tallies = 2);
  Alcotest.(check bool) "a substantive matrix" true
    (Crash.total_points tallies >= 50);
  (* Every recovery class must actually occur: points that resume the
     newest snapshot, points that exercise the .1 rotation, and points
     where only a scratch restart remains. *)
  let sum f = List.fold_left (fun a t -> a + f t) 0 tallies in
  Alcotest.(check bool) "primary resumes seen" true
    (sum (fun t -> t.Crash.primary) > 0);
  Alcotest.(check bool) "rotation fallbacks seen" true
    (sum (fun t -> t.Crash.fallback) > 0);
  Alcotest.(check bool) "scratch restarts seen" true
    (sum (fun t -> t.Crash.scratch) > 0)

let suite =
  [
    Tu.case "mem fs: Drop loses unsynced data" test_mem_drop_loses_unsynced_data;
    Tu.case "mem fs: fsync makes data durable" test_mem_fsync_makes_data_durable;
    Tu.case "mem fs: Keep flushes everything" test_mem_keep_flushes_everything;
    Tu.case "mem fs: rename carries the durable image"
      test_mem_rename_carries_durable_image;
    Tu.case "mem fs: rename without fsync leaves a husk"
      test_mem_rename_without_fsync_is_a_husk;
    Tu.case "mem fs: directories and readdir" test_mem_dirs_and_readdir;
    Tu.case "crash_at kills at the boundary, then everything"
      test_crash_at_kills_exactly_once;
    Tu.case "crash_at torn write leaves a prefix"
      test_crash_at_torn_write_leaves_prefix;
    Tu.case "crash_at: reads are not boundaries"
      test_crash_at_reads_are_not_boundaries;
    Tu.case "faulty backend is seed-deterministic" test_faulty_is_deterministic;
    Tu.case "faulty with zero rates is passthrough"
      test_faulty_zero_rate_is_passthrough;
    Tu.case "Faults.storage_io draws a dedicated stream"
      test_storage_io_stream_is_seeded;
    Tu.case "enospc_while lifts when the disk drains" test_enospc_while_recovers;
    Tu.case "recording counts mutating ops only"
      test_recording_counts_mutations_only;
    Tu.case "spool scan is readdir-order independent"
      test_spool_scan_shuffled_readdir;
    Tu.case "scratch remove_existing skips per-path failures"
      test_scratch_remove_existing_skips_failures;
    Tu.qcheck prop_scratch_with_temp_dir_cleanup;
    Tu.slow_case "crash-point matrix: zero violations at seed 1"
      test_torture_matrix_is_clean;
  ]
