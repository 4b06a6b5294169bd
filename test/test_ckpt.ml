module Snapshot = Ace_ckpt.Snapshot
module Run = Ace_harness.Run
module Crash = Ace_harness.Crash
module Scheme = Ace_harness.Scheme

let compress () = Option.get (Ace_workloads.Specjvm.find "compress")

let tmp_path () = Filename.temp_file "ace_ckpt_test" ".snap"

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1"; path ^ ".tmp" ]

(* Real snapshots from a small checkpointed run — the codec tests exercise
   the exact states production runs produce, not hand-built toys. *)
let sample_snapshots ?(scheme = Scheme.Hotspot) ?fault_rate () =
  let path = tmp_path () in
  let snaps = ref [] in
  let outcome =
    Run.run_checkpointed ~scale:0.2 ~seed:3 ?fault_rate
      ~on_snapshot:(fun s -> snaps := s :: !snaps)
      ~checkpoint_every:2_000_000 ~path (compress ()) scheme
  in
  cleanup path;
  match outcome with
  | Run.Completed r -> (List.rev !snaps, r)
  | Run.Killed_at _ -> assert false

let snaps_equal a b = Stdlib.compare (a : Snapshot.t) b = 0

let test_codec_roundtrip () =
  List.iter
    (fun scheme ->
      let snaps, _ = sample_snapshots ~scheme () in
      Alcotest.(check bool) "run produced checkpoints" true (snaps <> []);
      List.iter
        (fun s ->
          if not (snaps_equal s (Snapshot.decode (Snapshot.encode s))) then
            Alcotest.fail "decode (encode s) <> s")
        snaps)
    [ Scheme.Fixed_baseline; Scheme.Hotspot; Scheme.Bbv ]

let test_codec_roundtrip_faulty () =
  let snaps, _ = sample_snapshots ~fault_rate:0.05 () in
  List.iter
    (fun s ->
      Alcotest.(check bool) "faults captured" true (s.Snapshot.faults <> None);
      if not (snaps_equal s (Snapshot.decode (Snapshot.encode s))) then
        Alcotest.fail "decode (encode s) <> s under faults")
    snaps

let expect_error ~what data =
  match Snapshot.decode data with
  | exception Snapshot.Error _ -> ()
  | _ -> Alcotest.failf "decode accepted %s" what

let patch data pos f =
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (f (Char.code (Bytes.get b pos))));
  Bytes.to_string b

let test_container_refuses_tampering () =
  let snaps, _ = sample_snapshots () in
  let data = Snapshot.encode (List.hd snaps) in
  ignore (Snapshot.decode data);
  expect_error ~what:"empty file" "";
  expect_error ~what:"truncated header" (String.sub data 0 10);
  expect_error ~what:"truncated payload" (String.sub data 0 (String.length data - 1));
  expect_error ~what:"bad magic" (patch data 0 (fun c -> c lxor 0xff));
  (* Version skew: a byte-identical payload under a bumped version number
     must be refused, not misparsed. *)
  expect_error ~what:"bumped version" (patch data 8 (fun c -> c + 1));
  (* One flipped payload byte fails the CRC. *)
  expect_error ~what:"flipped payload byte"
    (patch data (String.length data - 1) (fun c -> c lxor 0x01));
  (* Flipping the stored CRC itself is also caught. *)
  expect_error ~what:"flipped CRC" (patch data 20 (fun c -> c lxor 0x01))

let expect_typed ~what matches data =
  match Snapshot.decode data with
  | exception Snapshot.Error e ->
      if not (matches e) then
        Alcotest.failf "%s: wrong error class: %s" what (Snapshot.error_to_string e)
  | _ -> Alcotest.failf "decode accepted %s" what

(* Each corruption class maps to its own typed error, so callers (the serve
   supervisor in particular) can tell a crash-truncated snapshot apart from
   bit rot or a format change. *)
let test_typed_errors () =
  let snaps, _ = sample_snapshots () in
  let data = Snapshot.encode (List.hd snaps) in
  expect_typed ~what:"empty input"
    (function Snapshot.Truncated { got = 0; _ } -> true | _ -> false)
    "";
  expect_typed ~what:"partial header"
    (function Snapshot.Truncated _ -> true | _ -> false)
    (String.sub data 0 10);
  expect_typed ~what:"partial payload"
    (function Snapshot.Truncated _ -> true | _ -> false)
    (String.sub data 0 (String.length data - 5));
  expect_typed ~what:"bad magic"
    (function Snapshot.Bad_magic -> true | _ -> false)
    (patch data 0 (fun c -> c lxor 0xff));
  expect_typed ~what:"version skew"
    (function
      | Snapshot.Version_skew { expected; found } ->
          expected = Snapshot.version && found = Snapshot.version + 1
      | _ -> false)
    (patch data 8 (fun c -> c + 1));
  expect_typed ~what:"payload corruption"
    (function
      | Snapshot.Crc_mismatch { stored; computed } -> stored <> computed
      | _ -> false)
    (patch data (String.length data - 1) (fun c -> c lxor 0x01))

(* A daemon crash mid-write leaves zero-byte or partial snapshot files; the
   restarted supervisor must see [Truncated] from [read] (and skip the file)
   rather than an untyped failure. *)
let test_read_truncated_file () =
  let snaps, _ = sample_snapshots () in
  let data = Snapshot.encode (List.hd snaps) in
  let path = tmp_path () in
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let expect_truncated what =
    match Snapshot.read ~path () with
    | exception Snapshot.Error (Snapshot.Truncated _) -> ()
    | exception Snapshot.Error e ->
        Alcotest.failf "%s: wrong error class: %s" what (Snapshot.error_to_string e)
    | _ -> Alcotest.failf "%s: read accepted it" what
  in
  write "";
  expect_truncated "zero-byte file";
  write (String.sub data 0 (String.length data / 2));
  expect_truncated "half-written file";
  cleanup path

let read_golden name =
  let ic = open_in_bin name in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* The codec is proven unchanged by re-encoding: decoding a committed golden
   and encoding the result must give back the same bytes.  Decoding alone
   would miss a field swapped consistently in both directions. *)
let check_reencodes name =
  let data = read_golden name in
  if Snapshot.encode (Snapshot.decode data) <> data then
    Alcotest.failf "%s: encode (decode golden) differs from golden" name

let test_golden_snapshot () =
  (* A committed snapshot from an older build must keep decoding: the format
     is versioned, so any layout change has to bump Snapshot.version (which
     makes this test fail until the golden file is regenerated). *)
  let data = read_golden "golden.snap" in
  let s = Snapshot.decode data in
  Alcotest.(check string) "workload" "compress" s.Snapshot.meta.Snapshot.workload;
  Alcotest.(check bool) "hotspot scheme" true
    (s.Snapshot.meta.Snapshot.scheme = Snapshot.Hotspot);
  Alcotest.(check bool) "mid-run position" true (s.Snapshot.engine.Ace_vm.Engine.s_instrs > 0);
  expect_error ~what:"bumped-version golden" (patch data 8 (fun c -> c + 1));
  expect_error ~what:"corrupted golden" (patch data 60 (fun c -> c lxor 0x20))

let test_golden_reencodes () = check_reencodes "golden.snap"

(* The encoder allocates nothing per field or element; only the buffer's
   growth and the final copy allocate, and those are large enough to go
   straight to the major heap.  (Boxing one int64 per field cost 0.355 minor
   words per byte.) *)
let test_encode_allocation () =
  let snap = Snapshot.decode (read_golden "golden.snap") in
  let bytes = String.length (Snapshot.encode snap) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 5 do
    ignore (Snapshot.encode snap)
  done;
  let per_byte = (Gc.minor_words () -. w0) /. float_of_int (5 * bytes) in
  if per_byte >= 0.01 then
    Alcotest.failf "encode allocates %g minor words per byte" per_byte

(* The second golden pins what golden.snap leaves out: the BBV scheme,
   fault injector state, sampler state and meta.sample. *)
let test_golden_bbv () =
  let data = read_golden "golden_bbv.snap" in
  let s = Snapshot.decode data in
  let m = s.Snapshot.meta in
  Alcotest.(check string) "workload" "compress" m.Snapshot.workload;
  Alcotest.(check bool) "bbv scheme" true (m.Snapshot.scheme = Snapshot.Bbv);
  Alcotest.(check bool) "sampling config" true
    (m.Snapshot.sample = Some Ace_sample.Sample.default_config);
  Alcotest.(check bool) "fault rate" true (m.Snapshot.fault_rate = Some 0.02);
  Alcotest.(check bool) "faults captured" true (s.Snapshot.faults <> None);
  Alcotest.(check bool) "sample state captured" true
    (s.Snapshot.sample_state <> None);
  Alcotest.(check bool) "bbv state" true
    (match s.Snapshot.scheme_state with Snapshot.S_bbv _ -> true | _ -> false);
  check_reencodes "golden_bbv.snap"

(* A container around an arbitrary payload, with a correct header and CRC,
   so that decoding reaches the payload decoder's own checks. *)
let wrap payload =
  let b = Buffer.create (26 + String.length payload) in
  Buffer.add_string b "ACESNAP1";
  Buffer.add_uint16_le b Snapshot.version;
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int64_le b (Int64.of_int (Ace_util.Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

(* Damage that passes the CRC: a few random bytes overwritten, then the
   payload optionally cut short.  The decoder must either accept the result
   or refuse it as [Malformed] — never raise anything else. *)
let prop_malformed_payload name ~count =
  let payload = lazy (let d = read_golden name in String.sub d 26 (String.length d - 26)) in
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "%s: damaged payload is decoded or Malformed" name)
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (pair (int_bound max_int) (int_bound 255)))
        (option (int_bound max_int)))
    (fun (edits, cut) ->
      let p = Bytes.of_string (Lazy.force payload) in
      let n = Bytes.length p in
      List.iter (fun (pos, v) -> Bytes.set p (pos mod n) (Char.chr v)) edits;
      let len = match cut with None -> n | Some c -> c mod n in
      match Snapshot.decode (wrap (Bytes.sub_string p 0 len)) with
      | _ | (exception Snapshot.Error (Snapshot.Malformed _)) -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_write_rotates_and_falls_back () =
  let path = tmp_path () in
  let snaps, _ = sample_snapshots () in
  let s1, s2 =
    match snaps with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 2 snaps"
  in
  Snapshot.write ~path s1;
  Snapshot.write ~path s2;
  Alcotest.(check bool) "rotated" true (Sys.file_exists (path ^ ".1"));
  (match Snapshot.read_with_fallback ~path () with
  | Some (s, `Primary) ->
      Alcotest.(check bool) "primary is newest" true (snaps_equal s s2)
  | _ -> Alcotest.fail "expected primary");
  (* Corrupt the newest snapshot on disk: reads must fall back to the
     rotated previous one. *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc 30;
  output_string oc "garbage";
  close_out oc;
  (match Snapshot.read_with_fallback ~path () with
  | Some (s, `Fallback) ->
      Alcotest.(check bool) "fallback is previous" true (snaps_equal s s1)
  | _ -> Alcotest.fail "expected fallback");
  (* Corrupt the fallback too: nothing left. *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 (path ^ ".1") in
  output_string oc "junk";
  close_out oc;
  Alcotest.(check bool)
    "both bad" true
    (Snapshot.read_with_fallback ~path () = None);
  cleanup path

let test_torn_generations () =
  (* The torture harness's torn-write case, pinned as a unit test: a crash
     mid-write leaves a prefix of the file, not corrupted bytes. *)
  let path = tmp_path () in
  let snaps, _ = sample_snapshots () in
  let s1, s2 =
    match snaps with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 2 snaps"
  in
  Snapshot.write ~path s1;
  Snapshot.write ~path s2;
  let tear p =
    let ic = open_in_bin p in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin p in
    output_string oc (String.sub data 0 (String.length data / 2));
    close_out oc
  in
  tear path;
  (match Snapshot.read_with_fallback ~path () with
  | Some (s, `Fallback) ->
      Alcotest.(check bool) "torn primary falls back to rotation" true
        (snaps_equal s s1)
  | _ -> Alcotest.fail "expected fallback from torn primary");
  (* Tear the rotation too: reads must fail with a *typed* error and the
     fallback reader must report None — never leak a raw exception. *)
  tear (path ^ ".1");
  (match Snapshot.read ~path () with
  | exception Snapshot.Error (Snapshot.Truncated _) -> ()
  | exception Snapshot.Error e ->
      Alcotest.failf "wrong error class: %s" (Snapshot.error_to_string e)
  | exception e ->
      Alcotest.failf "untyped exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "torn primary accepted");
  Alcotest.(check bool) "both generations torn -> None" true
    (Snapshot.read_with_fallback ~path () = None);
  cleanup path

let test_checkpoint_every_validated () =
  match
    Run.run_checkpointed ~checkpoint_every:0 ~path:"/nonexistent/x.snap"
      (compress ()) Scheme.Hotspot
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted checkpoint_every = 0"

let job ?fault_rate ~checkpoint_every scheme =
  {
    Crash.workload = compress ();
    scheme;
    scale = 0.2;
    seed = 3;
    fault_rate;
    checkpoint_every;
  }

let run_oracle ?fault_rate scheme =
  let r = Crash.replay (job ?fault_rate ~checkpoint_every:2_000_000 scheme) in
  Alcotest.(check bool) "several checkpoints" true (r.Crash.points >= 2);
  if r.Crash.violations <> [] then
    Alcotest.failf "%d of %d replays diverged"
      (List.length r.Crash.violations)
      r.Crash.points

let test_oracle_baseline () = run_oracle Scheme.Fixed_baseline
let test_oracle_hotspot () = run_oracle Scheme.Hotspot
let test_oracle_bbv () = run_oracle Scheme.Bbv
let test_oracle_hotspot_faulty () = run_oracle ~fault_rate:0.02 Scheme.Hotspot

let test_chaos_soak () =
  let r =
    Crash.kill ~cycles:25
      (job ~fault_rate:0.01 ~checkpoint_every:500_000 Scheme.Hotspot)
  in
  if r.Crash.violations <> [] then
    Alcotest.fail "soak survivor's table differs from uninterrupted baseline";
  Alcotest.(check bool)
    (Printf.sprintf "at least 20 kill/resume cycles (got %d)" r.Crash.points)
    true (r.Crash.points >= 20)

let suite =
  [
    Tu.case "codec roundtrip (all schemes)" test_codec_roundtrip;
    Tu.case "codec roundtrip under faults" test_codec_roundtrip_faulty;
    Tu.case "container refuses tampering" test_container_refuses_tampering;
    Tu.case "corruption classes map to typed errors" test_typed_errors;
    Tu.case "read flags truncated files" test_read_truncated_file;
    Tu.case "golden snapshot decodes" test_golden_snapshot;
    Tu.case "write rotates and falls back" test_write_rotates_and_falls_back;
    Tu.case "torn generations: rotation fallback, typed errors"
      test_torn_generations;
    Tu.case "checkpoint_every validated" test_checkpoint_every_validated;
    Tu.slow_case "determinism oracle: baseline" test_oracle_baseline;
    Tu.slow_case "determinism oracle: hotspot" test_oracle_hotspot;
    Tu.slow_case "determinism oracle: bbv" test_oracle_bbv;
    Tu.slow_case "determinism oracle: hotspot+faults" test_oracle_hotspot_faulty;
    Tu.slow_case "chaos soak survives 20 kill/resume cycles" test_chaos_soak;
    Tu.case "golden snapshot re-encodes byte for byte" test_golden_reencodes;
    Tu.case "bbv/faults/sampler golden decodes and re-encodes" test_golden_bbv;
    Tu.case "snapshot encode allocates nothing per field" test_encode_allocation;
    Tu.qcheck (prop_malformed_payload "golden.snap" ~count:1000);
    Tu.qcheck (prop_malformed_payload "golden_bbv.snap" ~count:1500);
  ]
