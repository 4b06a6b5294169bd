exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module Dec = struct
  type t = { s : string; mutable pos : int }

  let remaining d = String.length d.s - d.pos
  let need d n = if remaining d < n then fail "truncated (%d bytes at %d)" n d.pos

  let u8 d =
    need d 1;
    d.pos <- d.pos + 1;
    Char.code (String.unsafe_get d.s (d.pos - 1))

  let i64 d =
    need d 8;
    d.pos <- d.pos + 8;
    String.get_int64_le d.s (d.pos - 8)

  (* Not [Int64.to_int (i64 d)]: with the read inline, the int64 is never
     boxed. *)
  let int d =
    need d 8;
    d.pos <- d.pos + 8;
    Int64.to_int (String.get_int64_le d.s (d.pos - 8))

  let f64 d =
    need d 8;
    d.pos <- d.pos + 8;
    Int64.float_of_bits (String.get_int64_le d.s (d.pos - 8))

  (* Length sanity bound: every element costs at least one byte, so a
     declared length beyond the remaining bytes is corruption, not data. *)
  let len d =
    let n = int d in
    if n < 0 || n > remaining d then fail "bad length %d at %d" n d.pos;
    n
end

type 'a t = { enc : Buffer.t -> 'a -> unit; dec : Dec.t -> 'a }

let tag b n = Buffer.add_char b (Char.unsafe_chr (n land 0xFF))

(* The stdlib's [Buffer.add_int64_le] is inlined here, so an int or a float
   reaches the buffer unboxed. *)
let enc_int b n = Buffer.add_int64_le b (Int64.of_int n)
let enc_f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let i64 = { enc = Buffer.add_int64_le; dec = Dec.i64 }
let int = { enc = enc_int; dec = Dec.int }
let f64 = { enc = enc_f64; dec = Dec.f64 }

let variant name enc cases =
  let dec d =
    let n = Dec.u8 d in
    if n >= Array.length cases then fail "bad %s tag %d at %d" name n d.Dec.pos;
    cases.(n) d
  in
  { enc; dec }

let bool =
  variant "bool" (fun b x -> tag b (Bool.to_int x)) [| (fun _ -> false); (fun _ -> true) |]

let string =
  let dec d =
    let n = Dec.len d in
    d.Dec.pos <- d.Dec.pos + n;
    String.sub d.Dec.s (d.Dec.pos - n) n
  in
  { enc = (fun b s -> enc_int b (String.length s); Buffer.add_string b s); dec }

let option c =
  variant "option"
    (fun b -> function None -> tag b 0 | Some x -> tag b 1; c.enc b x)
    [| (fun _ -> None); (fun d -> Some (c.dec d)) |]

(* Element decoders are effectful and must run left to right, as loops and
   [Array.init] (which applies its function in index order) do.  Encoders
   loop rather than pass a closure to an iterator, so they allocate nothing. *)
let array c =
  let enc b xs =
    enc_int b (Array.length xs);
    for i = 0 to Array.length xs - 1 do
      c.enc b (Array.unsafe_get xs i)
    done
  in
  let dec d =
    let n = Dec.len d in
    if n = 0 then [||]
    else begin
      let out = Array.make n (c.dec d) in
      for i = 1 to n - 1 do
        Array.unsafe_set out i (c.dec d)
      done;
      out
    end
  in
  { enc; dec }

let int_array =
  let enc b (xs : int array) =
    enc_int b (Array.length xs);
    for i = 0 to Array.length xs - 1 do
      enc_int b (Array.unsafe_get xs i)
    done
  in
  { enc; dec = (fun d -> let n = Dec.len d in Array.init n (fun _ -> Dec.int d)) }

(* Monomorphic, so the elements of a flat float array are read unboxed. *)
let f64_array =
  let enc b (xs : float array) =
    enc_int b (Array.length xs);
    for i = 0 to Array.length xs - 1 do
      enc_f64 b (Array.unsafe_get xs i)
    done
  in
  { enc; dec = (fun d -> let n = Dec.len d in Array.init n (fun _ -> Dec.f64 d)) }

let bool_array = array bool

let rec enc_list c b = function
  | [] -> ()
  | x :: rest -> c.enc b x; enc_list c b rest

let list c =
  let dec d =
    let acc = ref [] in
    for _ = 1 to Dec.len d do
      acc := c.dec d :: !acc
    done;
    List.rev !acc
  in
  { enc = (fun b xs -> enc_int b (List.length xs); enc_list c b xs); dec }

let pair ca cb =
  let dec d = let x = ca.dec d in (x, cb.dec d) in
  { enc = (fun b (x, y) -> ca.enc b x; cb.enc b y); dec }

let triple ca cb cc =
  let dec d = let x = ca.dec d in let y = cb.dec d in (x, y, cc.dec d) in
  { enc = (fun b (x, y, z) -> ca.enc b x; cb.enc b y; cc.enc b z); dec }

type ('r, 'k) fields = { fenc : Buffer.t -> 'r -> unit; fdec : Dec.t -> 'k }

let record k = { fenc = (fun _ _ -> ()); fdec = (fun _ -> k) }

let ( |+ ) fs (c, get) =
  {
    fenc = (fun b r -> fs.fenc b r; c.enc b (get r));
    fdec = (fun d -> let k = fs.fdec d in k (c.dec d));
  }

let seal fs = { enc = fs.fenc; dec = fs.fdec }

let enum name values =
  let rec index v i =
    if i = Array.length values then invalid_arg ("Codec.enum: unlisted " ^ name)
    else if values.(i) = v then i
    else index v (i + 1)
  in
  variant name (fun b v -> tag b (index v 0)) (Array.map (fun v _ -> v) values)

let delay build =
  let built = Atomic.make None in
  let get () =
    match Atomic.get built with
    | Some c -> c
    | None ->
        let c = build () in
        Atomic.set built (Some c);
        c
  in
  { enc = (fun b v -> (get ()).enc b v); dec = (fun d -> (get ()).dec d) }

let decode_string c ?(pos = 0) s =
  let d = { Dec.s; pos } in
  let v = c.dec d in
  if Dec.remaining d > 0 then fail "%d trailing bytes" (Dec.remaining d);
  v
