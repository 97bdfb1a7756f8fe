(** A least-recently-used cache: the statement cache's backing store,
    and the held answers of a connection, a coordinator's kept GROUP
    BYs and a client's copies.  Its capacity bounds the entries'
    weights: one each, or what [weigh] says (a held answer's rows).

    A hash table finds the entries, and a doubly linked list beside it
    keeps them in recency order, so a lookup, an insertion and an
    eviction each take O(1): an insertion past capacity drops the
    list's oldest entry instead of scanning the table for it.

    Not thread-safe; callers serialise access (the interpreter holds a
    mutex around lookups and stores). *)

type ('k, 'v) t

val create :
  ?on_evict:('k -> unit) -> ?weigh:('v -> int) -> capacity:int -> unit -> ('k, 'v) t
(** [on_evict] hears each key {!set} evicts; [weigh] runs once per
    value {!set} stores.
    @raise Invalid_argument when [capacity < 1] *)

val length : ('k, 'v) t -> int
val find : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most-recently used. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces, then evicts least-recently-used entries until
    the weights fit the capacity: an entry heavier than the capacity
    evicts itself last.  Keys use structural equality and hashing. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drops the entry, if any, without calling [on_evict]. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Over every entry, in no particular order; recency is untouched. *)
