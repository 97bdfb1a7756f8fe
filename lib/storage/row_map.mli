(** A table's tuple → texp map, with set semantics: one open-addressing
    table over three flat arrays (tuple, texp and the tuple's hash),
    probed linearly.

    The caller hashes a tuple once ({!hash}) and passes the hash to
    every call, so a write probes once: {!slot} finds the slot holding
    the tuple or the vacant slot that ends its probe chain, and the
    write goes there ({!fill}, {!set_texp}, {!clear}).  At most half the
    slots are held; a growth doubles the arrays and places each entry by
    its stored hash, without hashing a tuple.  A removal shifts the rest
    of its probe chain back over the hole, so no slot holds a tombstone
    and a lookup stops at the first vacant slot. *)

open Expirel_core

type t

val create : int -> t
(** An empty map of at least this many slots (rounded up to a power of
    two, at least 2). *)

val hash : Tuple.t -> int
(** {!Tuple.hash}, made non-negative: the hash a table passes. *)

val length : t -> int
(** The tuples held. *)

val slot : t -> Tuple.t -> hash:int -> int
(** The slot holding the tuple, or the vacant slot that ends its probe
    chain.  [hash] is any non-negative int, the same for every call on
    one tuple.  The slot stays valid until the next {!fill} or
    {!clear}. *)

val held : t -> int -> bool
(** Whether the slot holds a tuple. *)

val texp : t -> int -> Time.t
(** The texp of a held slot. *)

val set_texp : t -> int -> Time.t -> unit
(** Overwrites the texp of a held slot. *)

val fill : t -> int -> Tuple.t -> hash:int -> Time.t -> unit
(** [fill m i tuple ~hash texp] stores the tuple in [i], the vacant slot
    {!slot} found for it, and grows the map once it is over half full. *)

val clear : t -> int -> unit
(** Empties a held slot, shifting the rest of its probe chain back. *)

val find : t -> Tuple.t -> hash:int -> Time.t option
val remove : t -> Tuple.t -> hash:int -> unit

val fold : (Tuple.t -> Time.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the held tuples, in slot order. *)
