module Rng = Ace_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_copy_independent () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues from same state" xa xb;
  let xa1 = Rng.bits64 a in
  (* [a] is now one draw ahead: [b]'s next output is [a]'s last draw, and
     then both streams stay in lock-step one draw apart. *)
  Alcotest.(check int64) "copy lags by exactly one draw" xa1 (Rng.bits64 b);
  for _ = 1 to 10 do
    let xa = Rng.bits64 a in
    Alcotest.(check int64) "lag is preserved" xa (Rng.bits64 b)
  done

(* Drawing from, skipping and overwriting [x] must leave [y]'s state where
   it was.  Checked both ways so neither side of a derived pair shares
   storage with the other. *)
let check_unaliased name x y =
  let expect = Rng.to_state y in
  for _ = 1 to 5 do
    ignore (Rng.bits64 x)
  done;
  Rng.skip x 1000;
  Rng.set_state x 0xDEADBEEFL;
  Alcotest.(check int64) (name ^ ": advancing one leaves the other") expect (Rng.to_state y);
  let expect = Rng.to_state x in
  ignore (Rng.int y 10);
  Rng.skip y 7;
  Rng.set_state y 0x12345678L;
  Alcotest.(check int64) (name ^ ": and vice versa") expect (Rng.to_state x)

let test_no_aliasing () =
  let a = Rng.create ~seed:21 in
  check_unaliased "copy" a (Rng.copy a);
  let a = Rng.create ~seed:22 in
  check_unaliased "split" a (Rng.split a);
  let a = Rng.create ~seed:23 in
  check_unaliased "of_state" a (Rng.of_state (Rng.to_state a));
  let a = Rng.create ~seed:24 and c = Rng.create ~seed:0 in
  Rng.set_state c (Rng.to_state a);
  check_unaliased "set_state" a c;
  (* Equal seeds give equal but separate generators. *)
  check_unaliased "create" (Rng.create ~seed:25) (Rng.create ~seed:25)

let test_split_independent () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  Alcotest.(check bool) "split streams differ" true (c1 <> p1)

let test_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_int_in_bounds () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_int_in_degenerate () =
  let rng = Rng.create ~seed:4 in
  Alcotest.(check int) "singleton range" 7 (Rng.int_in rng 7 7)

let test_float_bounds () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:8 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  Tu.check_approx ~eps:0.02 "uniform mean ~0.5" 0.5 (!sum /. float_of_int n)

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:10 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Tu.check_approx ~eps:0.02 "bernoulli(0.3)" 0.3 (float_of_int !hits /. float_of_int n)

let test_bool_balance () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng then incr hits
  done;
  Tu.check_approx ~eps:0.02 "fair coin" 0.5 (float_of_int !hits /. float_of_int n)

let test_geometric_mean () =
  let rng = Rng.create ~seed:12 in
  let p = 0.25 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng p
  done;
  (* mean = (1-p)/p = 3 *)
  Tu.check_approx ~eps:0.15 "geometric mean" 3.0 (float_of_int !sum /. float_of_int n)

let test_geometric_p1 () =
  let rng = Rng.create ~seed:13 in
  Alcotest.(check int) "p=1 always 0" 0 (Rng.geometric rng 1.0)

let test_exponential_mean () =
  let rng = Rng.create ~seed:14 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 4.0
  done;
  Tu.check_approx ~eps:0.15 "exponential mean" 4.0 (!sum /. float_of_int n)

let test_pick_uniformity () =
  let rng = Rng.create ~seed:15 in
  let arr = [| 0; 1; 2; 3 |] in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let x = Rng.pick rng arr in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 1700 && c < 2300))
    counts

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:16 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let prop_state_roundtrip =
  QCheck.Test.make ~name:"rng state roundtrip continues bit-identically"
    ~count:200
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, warmup) ->
      let rng = Rng.create ~seed in
      for _ = 1 to warmup do
        ignore (Rng.bits64 rng)
      done;
      let restored = Rng.of_state (Rng.to_state rng) in
      let ok = ref true in
      for _ = 1 to 50 do
        if Rng.bits64 rng <> Rng.bits64 restored then ok := false
      done;
      !ok)

(* Known-answer values of the splitmix64 stream.  Every experiment table,
   golden snapshot and perfbench digest is downstream of these draws, so a
   change to the generator's representation must reproduce them exactly. *)
let known_answers =
  [
    ( 0,
      [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL;
        0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL; 0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ] );
    ( 1,
      [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL; 0x71C18690EE42C90BL;
        0x71BB54D8D101B5B9L; 0xC34D0BFF90150280L; 0xE099EC6CD7363CA5L; 0x85E7BB0F12278575L ] );
    ( 42,
      [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L; 0x581CE1FF0E4AE394L;
        0x09BC585A244823F2L; 0xDE4431FA3C80DB06L; 0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L ] );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create ~seed in
      List.iteri
        (fun i x ->
          Alcotest.(check int64) (Printf.sprintf "seed %d draw %d" seed i) x (Rng.bits64 rng))
        expected)
    known_answers;
  let rng = Rng.create ~seed:7 in
  Rng.skip rng 1_000_003;
  Alcotest.(check int64) "seed 7 after skip 1_000_003" 0x5E57189F361869B5L (Rng.bits64 rng);
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  Alcotest.(check int64) "split child of seed 42" 0x57E1FABA65107204L (Rng.bits64 child);
  Alcotest.(check int64) "split consumed one parent draw" 0x28EFE333B266F103L
    (Rng.bits64 parent)

(* Minor words allocated by [iters] calls of [f]; the tolerance used by
   callers only absorbs the boxed floats of the [Gc.minor_words] readings. *)
let minor_words_of iters f =
  for _ = 1 to 1000 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  Gc.minor_words () -. w0

let test_draws_allocate_nothing () =
  let rng = Rng.create ~seed:31 in
  let iters = 100_000 in
  let check name f =
    let delta = minor_words_of iters f in
    if delta > 64.0 then Alcotest.failf "%s allocated %.0f minor words over %d draws" name delta iters
  in
  check "Rng.int" (fun () -> ignore (Rng.int rng 1_000_000));
  check "Rng.int_in" (fun () -> ignore (Rng.int_in rng 5 900));
  check "Rng.bool" (fun () -> ignore (Rng.bool rng));
  let arr = [| 1; 2; 3 |] in
  check "Rng.pick" (fun () -> ignore (Rng.pick rng arr));
  check "Rng.bernoulli" (fun () -> ignore (Rng.bernoulli rng 0.3));
  check "Rng.geometric" (fun () -> ignore (Rng.geometric rng 0.25))

let test_random_in_batch_allocates_nothing () =
  let module P = Ace_isa.Pattern in
  let c = P.cursor (P.Random_in { base = 4096; extent = 1 lsl 20 }) in
  let rng = Rng.create ~seed:32 in
  let n = 1000 in
  let buf = Array.make n 0 in
  (* 100 batches: 100k addresses. *)
  let delta = minor_words_of 100 (fun () -> P.next_batch c ~rng buf ~pos:0 ~n) in
  if delta > 64.0 then
    Alcotest.failf "Random_in next_batch allocated %.0f minor words over %d addresses" delta
      (100 * n)

let test_set_state_matches_of_state () =
  let a = Rng.create ~seed:11 in
  ignore (Rng.bits64 a);
  let s = Rng.to_state a in
  let b = Rng.of_state s in
  let c = Rng.create ~seed:999 in
  Rng.set_state c s;
  for _ = 1 to 20 do
    let xa = Rng.bits64 a in
    Alcotest.(check int64) "of_state continues" xa (Rng.bits64 b);
    Alcotest.(check int64) "set_state continues" xa (Rng.bits64 c)
  done

let prop_int_in_range =
  QCheck.Test.make ~name:"rng int always in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let suite =
  [
    Tu.case "determinism" test_determinism;
    Tu.case "seed sensitivity" test_seed_sensitivity;
    Tu.case "copy is independent" test_copy_independent;
    Tu.case "copy/split/of_state/set_state never alias" test_no_aliasing;
    Tu.case "known-answer stream" test_known_answers;
    Tu.case "int/int_in/bool/pick/bernoulli/geometric allocate nothing" test_draws_allocate_nothing;
    Tu.case "Random_in next_batch allocates nothing" test_random_in_batch_allocates_nothing;
    Tu.case "split is independent" test_split_independent;
    Tu.case "int bounds" test_int_bounds;
    Tu.case "int_in bounds" test_int_in_bounds;
    Tu.case "int_in degenerate" test_int_in_degenerate;
    Tu.case "float bounds" test_float_bounds;
    Tu.case "float mean" test_float_mean;
    Tu.case "bernoulli rate" test_bernoulli_rate;
    Tu.case "bool balance" test_bool_balance;
    Tu.case "geometric mean" test_geometric_mean;
    Tu.case "geometric p=1" test_geometric_p1;
    Tu.case "exponential mean" test_exponential_mean;
    Tu.case "pick uniformity" test_pick_uniformity;
    Tu.case "shuffle permutation" test_shuffle_permutation;
    Tu.case "set_state matches of_state" test_set_state_matches_of_state;
    Tu.qcheck prop_int_in_range;
    Tu.qcheck prop_state_roundtrip;
  ]
