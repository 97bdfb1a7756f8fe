(** A persistent map from GROUP BY keys to values: the one group table
    of a standing grouped COUNT ({!Partial_agg.standing}), of the answer
    state it feeds ({!Subscription.counts}) and of a cluster
    coordinator's per-shard copies of its groups.

    An AVL tree balanced like the standard library's [Map], whose nodes
    also carry their subtree's size, so {!cardinal} is O(1).  A change
    copies one path and shares every other subtree with the map it
    changed, and {!diff} skips the subtrees two maps share by pointer,
    as [Relation.diff] does: a diff of two versions [k] changes apart
    costs O(k · log n), not O(n). *)

open Expirel_core

type key = Value.t list

val compare_keys : key -> key -> int
(** [List.compare Value.compare]: the keys' order. *)

type 'a t

val empty : 'a t

val cardinal : 'a t -> int
(** O(1). *)

val find_opt : key -> 'a t -> 'a option

val add : key -> 'a -> 'a t -> 'a t
(** Binds or rebinds; a rebinding to the physically same value answers
    the map itself. *)

val remove : key -> 'a t -> 'a t
(** The map itself when it lacks the key. *)

val of_ascending : (key * 'a) list -> 'a t
(** The map of bindings whose keys strictly ascend, built balanced in
    O(n).
    @raise Invalid_argument when they do not ascend *)

val patch : 'a t -> (key * 'a option) list -> 'a t
(** [patch m changes]: [m] with each key of [changes] (strictly
    ascending) bound to its value, or removed for [None] — one {!add}
    or {!remove} per change, or, when the changes are many enough that
    those searches would cost more ([k · height >= n]), one ordered
    merge rebuilt in O(n + k).
    @raise Invalid_argument when the keys do not ascend *)

val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** In ascending key order. *)

val diff : 'a t -> 'a t -> (key * 'a option) list
(** [diff before after]: every key whose binding differs, in ascending
    key order — [Some v] for a key [after] binds to [v] where [before]
    binds nothing or another value (compared by pointer), [None] for a
    key only [before] binds.  Subtrees the two maps share by pointer
    are skipped whole. *)

val well_formed : 'a t -> bool
(** Keys ascend, siblings' heights differ by at most 2, and every
    node's height and size are its subtrees'. *)
