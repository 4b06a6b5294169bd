(** Hand-rolled binary serialization for snapshot payloads, as pickler
    combinators (Kennedy, "Pickler Combinators", JFP 2004).

    A value of type ['a t] holds both directions for one type: an encoder
    appending ['a] to a [Buffer.t] and a decoder reading it back.  Each
    serialized type is described once, from the primitives and combinators
    below, and both directions follow from that description, so they cannot
    disagree on field order.  The one exception is a variant's payload,
    whose encoding [match] sits beside its decoders in one {!variant}
    table.

    The byte layout is fixed-width little-endian and defined here and nowhere
    else, so snapshot files are stable across compiler versions and can be
    versioned and CRC-checked byte-for-byte (golden files live in [test/]).
    There is no framing: a record is its fields in order, an option or
    variant is a u8 tag followed by the payload, and an array, list or
    string is an int length followed by its elements.

    {b Allocation.}  Encoding allocates nothing per field or per element:
    ints and floats reach the buffer unboxed, arrays and lists are walked
    with loops rather than closures, and records read their fields through
    getters, never through an intermediate tuple.  Only the buffer's own
    growth allocates.  Use {!f64_array}, not [array f64], for float arrays:
    the generic {!array} boxes each element of a flat float array.

    {b Validation.}  Decoders check every tag and every length against the
    remaining input and raise {!Error} rather than reading out of bounds. *)

exception Error of string
(** Raised by decoders on truncated or malformed input. *)

module Dec : sig
  type t
  (** A read position in a string. *)
end

type 'a t = { enc : Buffer.t -> 'a -> unit; dec : Dec.t -> 'a }
(** [enc] appends a value; [dec] reads one and advances past it. *)

(** {2 Primitives} *)

val i64 : int64 t

val int : int t
(** As a 64-bit little-endian integer. *)

val f64 : float t
(** IEEE-754 bits, as a 64-bit integer. *)

val bool : bool t
(** One byte, 0 or 1. *)

val string : string t
(** Length, then the bytes. *)

(** {2 Containers} *)

val option : 'a t -> 'a option t
(** Tag 0 for [None]; tag 1 then the value for [Some]. *)

val array : 'a t -> 'a array t
val list : 'a t -> 'a list t
val int_array : int array t
val f64_array : float array t
val bool_array : bool array t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** {2 Records}

    A record is its constructor followed by one line per field, in
    serialization order, each giving the field's codec and its getter:
    {[
      let running =
        record (fun s_n s_mean -> { Running.s_n; s_mean })
        |+ (int, fun s -> s.Running.s_n)
        |+ (f64, fun s -> s.s_mean)
        |> seal
    ]}
    Decoding applies the constructor to the fields in that order.  Qualify
    the first getter's field; the record type is then known for the rest. *)

type ('r, 'k) fields
(** The fields of an ['r] listed so far; ['k] is what the constructor still
    needs, ['r] once every field is listed. *)

val record : 'k -> ('r, 'k) fields
val ( |+ ) : ('r, 'a -> 'k) fields -> 'a t * ('r -> 'a) -> ('r, 'k) fields
val seal : ('r, 'r) fields -> 'r t

(** {2 Variants} *)

val tag : Buffer.t -> int -> unit
(** Write a variant's u8 tag. *)

val variant : string -> (Buffer.t -> 'a -> unit) -> (Dec.t -> 'a) array -> 'a t
(** [variant name enc cases] is a tag-dispatched case table.  [enc] is one
    [match] that writes each case's {!tag} and then its payload (OCaml's
    inline records cannot be projected, so this side is written out);
    [cases.(n)] decodes the payload of tag [n].  An unknown tag raises
    {!Error} naming [name]. *)

val enum : string -> 'a array -> 'a t
(** Constant constructors, tagged by their index in the array. *)

val delay : (unit -> 'a t) -> 'a t
(** A codec built by [build ()] on its first use rather than when it is
    defined, so that a program which never serializes does not hold the
    closures a large description is made of.  Domains racing on the first
    use may each build one; descriptions are pure, so the copies agree. *)

(** {2 Running a decoder} *)

val decode_string : 'a t -> ?pos:int -> string -> 'a
(** Decode one value from [pos] (default 0) to the end of the string.
    @raise Error on malformed input or trailing bytes. *)
