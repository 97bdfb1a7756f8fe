(** Lowering the sqlx AST to the core algebra.

    Name resolution turns column references into the 1-based attribute
    positions the algebra uses; aggregation queries compile to the
    paper's [agg^exp] (which keeps all input attributes and appends the
    aggregate value) followed by a projection onto the selected items —
    exactly the shape of Figure 3(a). *)

open Expirel_core

exception Error of string

type catalog = string -> string list option
(** Table name to column names. *)

type compiled = {
  expr : Algebra.t;
  columns : string list;  (** output column labels, one per attribute *)
  approx : Expirel_exec.Approx.spec option;
      (** set for [APPROX_COUNT(eps)] / [SAMPLE(k)] selects: [expr] is
          then the {e child} (the filtered source) and the planner wraps
          it in the matching sketch operator; [columns] already describe
          the sketch's output *)
}

val lower_query : catalog:catalog -> Ast.query -> compiled
(** @raise Error on unknown tables/columns, ambiguous references,
    non-grouped plain columns mixed with aggregates, more than one
    aggregate item, set operations over different-width operands, or
    approximate items mixed with anything (other items, GROUP BY,
    HAVING, set operations). *)

val lower_cond_for_table :
  columns:string list -> table:string -> Ast.cond -> Predicate.t
(** Resolves a condition against a single table (used by [DELETE]).
    @raise Error on unknown/ambiguous columns *)

type decomposed = {
  d_group : int list;  (** GROUP BY positions in the child *)
  d_func : Aggregate.func;
  d_having : Predicate.t option;
      (** over GROUP BY positions and the aggregate at child arity + 1 *)
  d_projection : int list;  (** final output positions, same vocabulary *)
  d_child : Algebra.t;  (** a base table, optionally filtered *)
}
(** A grouped-aggregate query split into the shard-local part (evaluate
    [d_child], condense it into a {!Expirel_exec.Partial_agg.t}) and the
    coordinator part (merge the partials, finalise with
    [d_group]/[d_func]/[d_having]/[d_projection]).  AVG never appears
    pre-averaged here: the partial carries SUM and COUNT separately, so
    the decomposition is exact across any partitioning. *)

val decompose : compiled -> decomposed option
(** [Some] exactly when the compiled query is a (possibly HAVING-ed,
    projected) aggregate over a single — optionally filtered — base
    table: the shape shards can answer from local rows alone.  Joins or
    set operations under the aggregate, approximate items, and
    non-aggregate queries return [None]. *)

(** How a cluster coordinator answers a query over hash-partitioned
    shards, where every row lives on the owner of its first column's
    hash. *)
type route =
  | Scatter
      (** the query is shard-local: every shard answers it over its
          partition and the answers merge under the union rule (max
          [texp] per duplicate row, min [texp(e)] overall) *)
  | Partial of decomposed
      (** every shard folds the decomposed child into expiration-slice
          partials; the coordinator merges and finalises them *)
  | Sketch of Expirel_exec.Approx.spec
      (** every shard folds the child into a sketch; the coordinator
          merges the sketches *)
  | Gather
      (** the coordinator gathers the base tables and computes the query
          itself *)

val route : catalog:catalog -> compiled -> route
(** [Partial] when {!decompose} succeeds; [Sketch] for an
    [APPROX_COUNT]/[SAMPLE] whose child is shard-local and keeps the
    key; [Scatter] for a shard-local query; [Gather] otherwise.
    Shard-local are: a selection/projection chain over one base table;
    a join whose condition equates both tables' first columns; a
    [UNION] of shard-local operands; an [EXCEPT]/[INTERSECT] whose
    operands are shard-local and keep the first column of their base at
    the same output position (equal rows then share a shard).  A
    projection that drops the key under [EXCEPT]/[INTERSECT], other
    joins and aggregates over joins gather.  [catalog] gives a join's
    left width. *)

val order_by_position : columns:string list -> Ast.column_ref -> int
(** Resolve an ORDER BY reference against output column labels: exact
    label match first, then a bare name matches a {e unique} qualified
    label by [".column"] suffix.
    @raise Error as ["unknown ORDER BY column c"] on no match and
    ["ambiguous ORDER BY column c"] when several labels match — the
    single resolver both the single-node presentation path and the
    cluster coordinator's merge use. *)
