(** A byte buffer of fixed-width ints and length-prefixed strings,
    written and read through a cursor.

    It is the frozen form of a finished trace: {!Trace_store} keeps one
    per ring slot and rewrites it in place for every trace it stores,
    so a stored trace leaves no per-request block behind for the major
    heap to mark.  An int takes 8 bytes (little-endian); a string its
    length as an int, then its bytes.  Not thread-safe. *)

type t = {
  mutable bytes : Bytes.t;
  mutable pos : int;  (** next byte written or read *)
}

val create : int -> t
(** An empty writer whose buffer starts at the given size (in bytes). *)

val reader : Bytes.t -> t
(** A cursor at the start of bytes written earlier. *)

val add_int : t -> int -> unit
(** Writes at [pos], growing the buffer (to twice its size, or more)
    when it is full. *)

val add_string : t -> string -> unit
val add_float : t -> float -> unit

val int : t -> int
(** Reads the int at [pos] and moves past it. *)

val string : t -> string
val float : t -> float

val int_at : Bytes.t -> int -> int
(** The int written at a byte offset, read without a cursor. *)
