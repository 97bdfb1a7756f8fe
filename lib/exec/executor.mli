(** Physical plan execution.

    Produces exactly what {!Eval.run} produces for the corresponding
    logical expression — result tuples, their expiration times, and the
    expression-level [texp(e)] (Equations (1)–(11)) — while running the
    physical operators the planner chose: index scans, hash joins,
    streaming nested loops, linear set merges.  The qcheck
    plan-equivalence suite holds this module to [Relation.equal]
    (including texps) against the naive {!Ops} kernels. *)

open Expirel_core
open Expirel_storage

type probe = {
  probe : 'a. string -> rows:('a -> int) -> (unit -> 'a) -> 'a;
}
(** The operator span hook, polymorphic over the node's result so the
    same hook wraps materialised ({!Eval.result}) and vectorized (batch
    list) operators alike; [rows] extracts the output cardinality from
    whichever result the thunk produced — trace spans label rows
    without the hook knowing the representation. *)

val run :
  ?strategy:Aggregate.strategy ->
  ?probe:probe ->
  ?profile:Profile.node ->
  db:Database.t ->
  Plan.compiled ->
  Eval.result
(** Evaluates the plan against the database's current state and clock.
    [probe] wraps every physical operator node with its
    {!Plan.operator_name} — the hook observability layers use to emit
    per-operator [op:<name>] spans, exactly as {!Eval.run}'s probe does
    for logical names on the naive path.  Operators inside a
    {!Plan.Batched} subtree are spanned too, their row counts summed
    over batches.
    [profile] — a {!Profile.of_plan} tree for this plan's [physical] —
    accumulates per-operator rows, expired-drop counts, index visits,
    hash build sizes and wall time as the plan runs ([EXPLAIN
    ANALYZE]'s data).  When absent the executor takes its original
    code path: no counters, no allocation.
    @raise Errors.Unknown_relation / Errors.Arity_mismatch as
    {!Eval.run} would for the same logical expression. *)

val partial :
  ?probe:probe -> db:Database.t -> Plan.compiled -> Partial_agg.t * Time.t
(** The shard side of a distributed GROUP BY: runs a plan whose root is
    a fused {!Plan.Grouped_aggregate} up to, not including, its
    finalisation, and returns the child's expiration-slice partial and
    the child's [texp(e)].  The child is condensed exactly as {!run}
    condenses it — from batches straight through the accumulator when
    the child is batched — under one [aggregate] probe span; the HAVING
    predicate and the projection are left to whoever finalises.
    @raise Invalid_argument when the root is not a fused grouped
    aggregate. *)

(** {2 Physical kernels}

    Exposed for direct testing (hash collision and arity edges, merge
    behaviour) and for benchmarking against the naive kernels. *)

val nested_loop : Predicate.t -> Relation.t -> Relation.t -> Relation.t
(** Streaming select-over-product: [Ops.join p] without materialising
    the intermediate product. *)

val hash_join :
  pairs:(int * int) list ->
  pred:Predicate.t ->
  Relation.t -> Relation.t -> Relation.t
(** Build on the right, probe from the left.  [pairs] are equi-key
    columns (1-based in each input); [pred] is the full join predicate,
    re-verified on every candidate pair so bucket equality only ever
    accelerates.  Key normalisation follows {!Value.cmp}: Int/Float
    coerce to one numeric key space, Null keys join nothing, NaN keys
    fall back to a per-tuple loop. *)

val merge_union : Relation.t -> Relation.t -> Relation.t
val merge_intersect : Relation.t -> Relation.t -> Relation.t
val merge_diff : Relation.t -> Relation.t -> Relation.t
(** Linear merges over the sorted tuple order; duplicate survivors take
    [max] (union, Equation (4)) / [min] (intersection, Equation (6)) of
    the two expiration times, difference keeps the left side's. *)
