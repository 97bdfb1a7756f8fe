(** Physical plan execution.

    Produces exactly what the naive {!Eval} produces for the corresponding
    logical expression — result tuples, their expiration times, and the
    expression-level [texp(e)] (Equations (1)–(11)) — while running the
    physical operators the planner chose.  Every operator yields
    columnar {!Batch.t}s, from the texp-ordered scan leaves up; the
    result is materialised once, at the root.  The set-semantics
    operators (intersection, difference, the unfused aggregate) take
    their inputs as sets and re-enter batch form with their answer.
    The qcheck plan-equivalence suite holds this module to
    [Relation.equal] (including texps) against the naive {!Ops}
    kernels. *)

open Expirel_core
open Expirel_storage

type probe = {
  probe : 'a. string -> rows:('a -> int) -> (unit -> 'a) -> 'a;
}
(** The operator span hook, polymorphic over the node's result so the
    same hook wraps operators and {!partial}'s fold alike; [rows]
    extracts the output cardinality from whichever result the thunk
    produced — trace spans label rows without the hook knowing the
    representation. *)

val run :
  ?probe:probe ->
  ?profile:Profile.node ->
  ?tau:Time.t ->
  db:Database.t ->
  Plan.compiled ->
  Eval.result
(** Evaluates the plan against the database's state as it stands at
    [tau] (default: the database clock; it must not be earlier).  A
    later [tau] answers [AT tau]: the current state with every row
    expired by then cut away.
    [probe] wraps every physical operator node with its
    {!Plan.operator_name} — the hook observability layers use to emit
    per-operator [op:<name>] spans, as the naive {!Eval}'s probe does
    for logical names.  The root's materialisation
    runs outside every operator span.
    [profile] — a {!Profile.of_plan} tree for this plan's [physical] —
    accumulates per-operator rows, batches, expired-drop counts, index
    visits, hash build sizes and wall time as the plan runs ([EXPLAIN
    ANALYZE]'s data).  When absent nothing is counted or allocated.
    @raise Errors.Unknown_relation / Errors.Arity_mismatch as the naive
    {!Eval} would for the same logical expression. *)

val partial :
  ?probe:probe ->
  ?tau:Time.t ->
  db:Database.t ->
  Plan.compiled ->
  Partial_agg.t * Time.t
(** The shard side of a distributed GROUP BY: runs a plan whose root is
    a fused {!Plan.Grouped_aggregate} at [tau] (as in {!run}) up to, not
    including, its finalisation, and returns the child's
    expiration-slice partial and the child's [texp(e)].  The child is
    condensed exactly as {!run} condenses it — from batches straight
    through the accumulator unless a projection below may have made
    rows coincide — under one [aggregate] probe span; the HAVING
    predicate and the projection are left to whoever finalises.
    @raise Invalid_argument when the root is not a fused grouped
    aggregate. *)
