(** A small least-recently-used cache (the plan cache's backing store).

    Eviction scans for the stalest entry — O(capacity), which is the
    right trade at plan-cache sizes (tens to hundreds of entries, and
    eviction only runs on insertion over capacity): no intrusive lists
    to keep consistent, no allocation on hit.

    Not thread-safe; callers serialise access (the interpreter holds a
    mutex around lookups and stores). *)

type ('k, 'v) t

val create : ?on_evict:('k -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [on_evict] hears each key {!set} evicts.
    @raise Invalid_argument when [capacity < 1] *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int
val find : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most-recently used. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces; evicts the least-recently-used entry when at
    capacity.  Keys use structural equality and hashing. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drops the entry, if any, without calling [on_evict]. *)
