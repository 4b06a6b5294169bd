(* The 64-bit state lives unboxed in an 8-byte buffer, read and written
   little-endian.  A [mutable state : int64] field would box a fresh int64
   on every draw; with the buffer, [bits64] inlined into [int] keeps the
   whole splitmix64 step in registers. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_le t 0
let[@inline] set t state = Bytes.set_int64_le t 0 state

let of_state state =
  let t = Bytes.create 8 in
  set t state;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let to_state t = get t
let set_state t state = set t state

(* splitmix64 core: advance the state by the golden gamma and scramble. *)
let[@inline] bits64 t =
  let z = Int64.add (get t) golden_gamma in
  set t z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

(* The state advances by exactly one gamma per [bits64] call, so skipping
   [n] draws is a single multiply-add.  Used by fast-forward simulation to
   keep the stream aligned with what a full run would have consumed. *)
let skip t n = set t (Int64.add (get t) (Int64.mul golden_gamma (Int64.of_int n)))

(* Non-negative 62-bit value, safe to use as an OCaml [int]. *)
let[@inline] positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let[@inline] int t bound =
  assert (bound > 0);
  positive_int t mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let geometric t p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Inverse CDF of the geometric distribution on {0, 1, ...}. *)
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))

let exponential t mean =
  let u = float t 1.0 in
  -.mean *. log1p (-.u)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
