(** The physical planner: compiles a logical {!Algebra.t} into an
    executable {!Plan.t} against a concrete database ({!plan}), or, at a
    cluster coordinator, into a plan whose leaves are exchanges
    ({!distribute}).

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

val distribute :
  env:(string -> int option) -> ?approx:Approx.spec -> Algebra.t -> Plan.compiled
(** A cluster coordinator's plan, where every row lives on the shard
    owning its first column's hash and [env] gives each table's width.
    Its leaves are {!Plan.Exchange}s:
    - a grouped aggregate over one (maybe filtered) table is the fused
      aggregate over an exchange of partials;
    - an [approx] over a shard-local child that keeps the key is the
      sketch operator over an exchange of sketches;
    - any other shard-local expression is one exchange of rows.
      Shard-local are a selection/projection chain over one table, a
      join equating both tables' first columns, a [UNION] of
      shard-local operands, and an [EXCEPT]/[INTERSECT] of shard-local
      operands keeping their first column at one output position;
    - anything else is the ordinary plan with each base table a
      whole-table exchange of rows, joins hashed on their equi-keys.
    An exchange pins its expression's keys: a selection's
    {!pinned_keys} over a base table, through projections, a [UNION]'s
    operands' and an [EXCEPT]/[INTERSECT]'s left operand's.
    @raise Errors.Unknown_relation or {!Errors.Arity_mismatch} as
    {!plan}. *)

val pinned_keys : Predicate.t -> Value.t list option
(** The first-column values a condition over one table pins: an
    equality's constant, either side of an [AND], both sides of an
    [OR]; [None] when it admits any key. *)

val rebind : ?db:Database.t -> (Value.t -> Value.t) -> Plan.compiled -> Plan.compiled
(** The plan with every predicate constant [c], and every exchange's
    pinned key, replaced by [f c]: a cached plan serving a statement
    that differs from the planned one only in its constants.  Every
    choice stays the planned statement's (they steer cost only, and the
    executor re-derives each scan's access path at its [tau] anyway):
    an index scan keeps its column, with the key range of the new
    constants in [db]'s table ({!Access.path}), and the joins keep
    their algorithms.  A plan of exchanges reads no [db]. *)

val estimate_rows : Database.t -> Plan.t -> int
(** The cardinality estimate used to cost alternatives (table stats at
    the leaves, fixed selectivity factors above).  Scan estimates are
    {e live} cardinalities ({!Table.live_estimate}): a mostly-expired
    churny table costs by what survives the cut, not by its physical
    row count.  An exchange's rows are unknown, costed as many. *)
