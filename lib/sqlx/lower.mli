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

val order_by_position : columns:string list -> Ast.column_ref -> int
(** Resolve an ORDER BY reference against output column labels: exact
    label match first, then a bare name matches a {e unique} qualified
    label by [".column"] suffix.
    @raise Error as ["unknown ORDER BY column c"] on no match and
    ["ambiguous ORDER BY column c"] when several labels match — the
    single resolver both the single-node presentation path and the
    cluster coordinator's merge use. *)
