(** Expiring relations: the data model of Section 2.2.

    A relation [R] is a {e set} of tuples of fixed arity together with the
    function [texp_R(.)] mapping each tuple to its expiration time.  We
    represent the pair as a map from tuple to expiration time, which makes
    [texp_R] total on the relation by construction and gives set semantics
    (duplicate insertion merges by taking the {e maximum} expiration time,
    consistent with the union and projection operators, Equations (3)–(4)). *)

type t

val empty : arity:int -> t
(** @raise Invalid_argument when [arity < 0]. *)

val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val add : Tuple.t -> texp:Time.t -> t -> t
(** Set insertion: if the tuple is already present, keeps the later of the
    two expiration times.
    @raise Invalid_argument on arity mismatch. *)

val add_min : Tuple.t -> texp:Time.t -> t -> t
(** Like {!add} but duplicate insertion keeps the {e earlier} expiration
    time — the merge used by the Cartesian product's minimum rule when a
    product produces coinciding tuples. *)

val replace : Tuple.t -> texp:Time.t -> t -> t
(** Unconditional overwrite of the expiration time (update semantics). *)

val remove : Tuple.t -> t -> t
val mem : Tuple.t -> t -> bool

val texp : t -> Tuple.t -> Time.t
(** The paper's [texp_R(r)].
    @raise Not_found when the tuple is not in the relation. *)

val texp_opt : t -> Tuple.t -> Time.t option

val exp : Time.t -> t -> t
(** [exp tau r] is the paper's [exp_tau(R) = { r | texp_R(r) > tau }].
    O(1) when no tuple has expired (the relation caches a lower bound on
    its minimum expiration time), otherwise one O(n) pass that shares
    the kept subtrees and recomputes that bound exactly.  An [exp] that
    drops nothing shares [r]'s map. *)

val of_list : arity:int -> (Tuple.t * Time.t) list -> t
val to_list : t -> (Tuple.t * Time.t) list
(** Sorted by tuple order (deterministic). *)

val tuples : t -> Tuple.t list

val iter : (Tuple.t -> Time.t -> unit) -> t -> unit
val fold : (Tuple.t -> Time.t -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Tuple.t -> Time.t -> bool) -> t -> t

val map_tuples : arity:int -> (Tuple.t -> Tuple.t) -> t -> t
(** Image of the relation under a tuple transformation; coinciding images
    keep the maximum expiration time (the projection rule, Equation (3)). *)

val union_max : t -> t -> t
(** Set union merging duplicates with [max] (Equation (4)).
    @raise Invalid_argument on arity mismatch (union compatibility). *)

val equal : t -> t -> bool
(** Tuple sets {e and} expiration times coincide. *)

val equal_tuples : t -> t -> bool
(** Tuple sets coincide, ignoring expiration times — the notion of
    equality used when comparing a properly expired materialisation with a
    fresh recomputation (Theorems 1 and 2). *)

val diff :
  limit:int ->
  t ->
  t ->
  ((Tuple.t * Time.t) list * Tuple.t list * int) option
(** [diff ~limit before after] is [Some (upserts, removed, n)]: the rows
    of [after] that [before] lacks or holds with another expiration
    time, and the tuples of [before] that [after] lacks, each in tuple
    order, and [after]'s cardinality [n] — or [None] once the upserts
    and removals together number more than [limit].  One walk of both
    relations, none for two sharing one map; rows the two share by
    pointer cost no comparison. *)

val min_texp : t -> Time.t
(** Minimum expiration time over all tuples; [Inf] when empty. *)

val max_texp : t -> Time.t
(** Maximum expiration time over all tuples; [Inf] when empty (callers
    guard emptiness; the paper only takes this maximum over non-empty
    partitions). *)

val expiry_times : t -> Time.t list
(** The distinct, finite expiration times present, ascending. *)

val pp : Format.formatter -> t -> unit
(** Paper-style listing: one [texp | tuple] row per line. *)

val to_string : t -> string
