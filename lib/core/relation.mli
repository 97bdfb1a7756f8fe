(** Expiring relations: the data model of Section 2.2.

    A relation [R] is a {e set} of tuples of fixed arity together with the
    function [texp_R(.)] mapping each tuple to its expiration time.  We
    represent the pair as a map from tuple to expiration time, which makes
    [texp_R] total on the relation by construction and gives set semantics
    (duplicate insertion merges by taking the {e maximum} expiration time,
    consistent with the union and projection operators, Equations (3)–(4)).

    The map is an AVL tree in tuple order whose nodes cache
    their subtree's size and minimum expiration time, so [cardinal] and
    [min_texp] are O(1), a single-row update is an O(log n) path copy,
    and {!exp}, {!fold_expired} and {!diff} cost what expires or changed
    rather than what is held. *)

type t

val empty : arity:int -> t
(** @raise Invalid_argument when [arity < 0]. *)

val arity : t -> int
val cardinal : t -> int
(** O(1). *)

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
    Descends only into subtrees whose minimum expiration time is at most
    [tau]: O(1) when nothing has expired, O(k log n) for k expiring rows
    otherwise, sharing every subtree it keeps whole.  An [exp] that drops
    nothing answers [r] itself. *)

val fold_expired : Time.t -> (Tuple.t -> Time.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_expired tau f r acc] folds [f] over the rows with
    [texp <= tau] — exactly those [exp tau r] drops — in tuple order,
    visiting only subtrees whose minimum expiration time is at most
    [tau]: O(k log n) for k such rows. *)

val of_list : arity:int -> (Tuple.t * Time.t) list -> t
(** {!add} of each row in turn.  A list in strictly ascending tuple
    order (another relation's {!to_list}) builds in one O(n) pass.
    @raise Invalid_argument on arity mismatch. *)

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
    and removals together number more than [limit].  One ordered walk of
    both trees that skips every subtree the two share by pointer: against
    a path copy of [before] (an answer updated row by row) it costs
    O(c log n) for c changed rows, and O(n) only for trees built apart;
    tuples the two share by pointer cost no comparison. *)

val min_texp : t -> Time.t
(** Minimum expiration time over all tuples; [Inf] when empty.  O(1)
    (the cached minimum cannot tell [Fin max_int] from [Inf], so that
    one case looks the row up). *)

val max_texp : t -> Time.t
(** Maximum expiration time over all tuples; [Inf] when empty (callers
    guard emptiness; the paper only takes this maximum over non-empty
    partitions). *)

val expiry_times : t -> Time.t list
(** The distinct, finite expiration times present, ascending. *)

val well_formed : t -> bool
(** The tree's invariants, for tests: tuples strictly ascending and of
    the relation's arity, every node's cached size and minimum
    expiration time exact, and sibling heights within 2 of each other
    (the standard library's [Map] balance). *)

val pp : Format.formatter -> t -> unit
(** Paper-style listing: one [texp | tuple] row per line. *)

val to_string : t -> string
