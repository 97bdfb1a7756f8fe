(** The one binary encoding of the system's values: the wire protocol's
    messages and the sketches' payloads are both written with it.

    Layout: a [u8] is one byte and a [bool] the byte 0 or 1; an [int] is
    the varint of its zigzag (0, -1, 1, -2, … as 0, 1, 2, 3, …: the
    63-bit pattern little-endian, seven bits a byte, the high bit
    marking "more", at most nine bytes); a float is its IEEE-754 bit
    pattern, 8 bytes little-endian; a string is its length as a varint,
    then its bytes; a time is the byte 0 for [Inf], else the varint of
    its zigzag plus one; a value is a tag byte (0 [Null], 1 [Bool],
    2 [Int], 3 [Float], 4 [Str]) then its payload; a list is its count
    as a varint, then its elements; an option is a presence byte (0 or
    1), then the value when present.

    Readers never allocate for a length or count the remaining bytes
    cannot hold, and reject a varint longer than nine bytes. *)

exception Bad of string
(** A malformed payload; {!decode} is the one place it becomes [Error]. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [bad fmt ...] raises {!Bad} with the formatted message. *)

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
val put_bool : Buffer.t -> bool -> unit
val put_int : Buffer.t -> int -> unit
val put_f64 : Buffer.t -> float -> unit
val put_str : Buffer.t -> string -> unit
val put_time : Buffer.t -> Time.t -> unit
val put_value : Buffer.t -> Value.t -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

val encode : (Buffer.t -> 'a -> unit) -> 'a -> string
(** [encode put v] is the bytes [put] writes for [v]. *)

(** {1 Reading} *)

type cursor

val get_u8 : cursor -> int
val get_bool : cursor -> bool
val get_int : cursor -> int
val get_f64 : cursor -> float
val get_str : cursor -> string
val get_time : cursor -> Time.t
val get_value : cursor -> Value.t

val get_list : cursor -> (cursor -> 'a) -> 'a list
(** Elements must take at least one byte each. *)

val get_option : cursor -> (cursor -> 'a) -> 'a option

val decode : what:string -> (cursor -> 'a) -> string -> ('a, string) result
(** [decode ~what get data] runs [get] over the whole of [data]: a
    {!Bad} it raises, or bytes it leaves over, answer
    [Error "<what>: <reason>"]. *)
