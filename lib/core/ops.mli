(** Relation-level application of the algebra's operators — the
    engine-room shared by the evaluator ({!Eval}) and the incremental
    maintenance machinery (the paper tree's maintained views).

    All functions assume their arguments are already properly expired
    (contain only live tuples); they implement exactly the tuple-level
    expiration rules of Equations (1)–(8) and (10). *)

val select : Predicate.t -> Relation.t -> Relation.t
val project : int list -> Relation.t -> Relation.t

val product : Relation.t -> Relation.t -> Relation.t
(** Result tuples carry the minimum of the operand lifetimes (Eq (2)). *)

val union : Relation.t -> Relation.t -> Relation.t
(** Shared tuples keep the maximum lifetime (Eq (4)).
    @raise Invalid_argument on arity mismatch *)

val join : Predicate.t -> Relation.t -> Relation.t -> Relation.t
(** The predicate ranges over the combined attribute positions (Eq (5)). *)

val intersect : Relation.t -> Relation.t -> Relation.t
(** Shared tuples keep the minimum lifetime (Eq (6)). *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Tuples of the left operand absent from the right, with their left
    lifetimes (Eq (10)). *)

val first_reappearance : Relation.t -> Relation.t -> Time.t
(** [min { texp_S(t) | t in R /\ t in S /\ texp_R(t) > texp_S(t) }] —
    the data-dependent part of the difference's expression expiration
    time (Section 2.6.2). *)

val aggregate :
  Aggregate.strategy ->
  tau:Time.t ->
  group:int list ->
  Aggregate.func ->
  Relation.t ->
  Relation.t * Time.t
(** [(relation, invalidation)]: the aggregation result (Eq (8)'s shape,
    result rows capped by their member's expiration) and the earliest
    time at which some partition's rows vanish while members outlive
    them — [Inf] when the materialisation never invalidates. *)
