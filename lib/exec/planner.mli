(** The physical planner: compiles a logical {!Algebra.t} into an
    executable {!Plan.t} against a concrete database.

    Decisions made here, all cost-only (results are invariant):
    - selections directly over base relations become scans, with
      {!Access.plan} choosing point/range index paths where a secondary
      index serves a column-vs-constant conjunct;
    - join predicates are split by {!Predicate.equi_split}; when
      cross-side equality columns exist, the hash join is chosen when
      its build and probe passes ([2 * (l + r)]) cost less than the
      nested loop's [l * r] pair visits on estimated input
      cardinalities;
    - union concatenates its inputs; intersection/difference run as
      linear merges over the sorted tuple order of their materialised
      inputs;
    - an aggregate plans only in the shape sqlx lowers GROUP BY to — a
      projection of GROUP BY positions and the aggregate, maybe over a
      HAVING on them — as one fused {!Plan.Grouped_aggregate}; any
      other aggregate is refused.

    Plans are immutable and reusable: all data references go through the
    database at execution time, so a plan stays valid across updates and
    clock advances — only DDL (table or index changes, tracked by
    {!Database.generation}) warrants replanning, and even a stale plan
    stays {e correct} because the executor re-validates access paths. *)

open Expirel_core
open Expirel_storage

val plan : db:Database.t -> ?approx:Approx.spec -> Algebra.t -> Plan.compiled
(** @raise Errors.Unknown_relation or {!Errors.Arity_mismatch} on an
    ill-formed expression, as {!Eval} does, before any shape is checked.
    @raise Invalid_argument on an aggregate outside the GROUP BY shape
    (bare, or under a projection or HAVING that reads a column neither
    grouped nor the aggregate).

    [approx], when given, wraps the compiled physical tree in the
    matching sketch operator ({!Plan.Sketch_count} /
    {!Plan.Sketch_sample}); the logical expression stays the child's —
    the sketch is a physical-only answer transform. *)

val rebind : db:Database.t -> (Value.t -> Value.t) -> Plan.compiled -> Plan.compiled
(** The plan with every predicate constant [c] replaced by [f c]: a
    cached plan serving a statement that differs from the planned one
    only in its constants.  Every choice stays the planned statement's
    (they steer cost only, and the executor re-derives each scan's
    access path at its [tau] anyway): an index scan keeps its column,
    with the key range of the new constants ({!Access.path}), and the
    joins keep their algorithms. *)

val estimate_rows : Database.t -> Plan.t -> int
(** The cardinality estimate used to cost alternatives (table stats at
    the leaves, fixed selectivity factors above).  Scan estimates are
    {e live} cardinalities ({!Table.live_estimate}): a mostly-expired
    churny table costs by what survives the cut, not by its physical
    row count. *)
