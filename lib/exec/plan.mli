(** Physical query plans: the executable counterpart of {!Algebra.t}.

    A plan node says {e how} a logical operator runs — which access path
    a leaf uses, whether a join builds a hash table or loops — while
    remaining semantically identical to the naive evaluator {!Eval},
    including every expiration-time assignment (Equations (1)–(11)): the
    planner may only change cost, never results.  The qcheck
    plan-equivalence suite pins exactly that. *)

open Expirel_core
open Expirel_storage

type ship = Statement | Table of string
(** What an exchange ships: the statement's own text, or one whole base
    table ([SELECT * FROM name]). *)

type want = Rows | Partials | Sketch
(** What it wants back from each shard: answer rows, a grouped
    aggregate child's partial ({!Partial_agg}), or a sketch. *)

type exchange = {
  ship : ship;
  want : want;
  keys : Value.t list option;  (** the partition keys it pins; [None]: every shard *)
  arity : int;  (** the rows' width: the answer's, or the aggregated child's *)
}
(** A distribution boundary (Graefe's exchange operator), where a
    cluster coordinator's plan reads the shards' answers: disjoint
    partitions, so they combine under the union rule (Theorem 1,
    Equation (4)) with the operators a node already runs. *)

type t =
  | Exchange of exchange
      (** answered by the executor's transport; a [Partials] or
          [Sketch] exchange sits directly under its aggregate or
          sketch *)
  | Scan of {
      name : string;
      pred : Predicate.t option;
          (** pushed-down selection re-applied in full to candidates *)
      access : Access.plan;
          (** the access path chosen at plan time (for EXPLAIN); the
              executor re-validates it against the current indexes, so a
              cached plan can never return stale-index results *)
    }
  | Filter of Predicate.t * t
  | Project of int list * t
  | Nested_loop of {
      pred : Predicate.t;  (** [True] for a bare Cartesian product *)
      left : t;
      right : t;
    }  (** select-over-product over batches: O(|l|·|r|) time, O(out) space *)
  | Hash_join of {
      pairs : (int * int) list;
          (** equi-key columns, each 1-based in its own input *)
      pred : Predicate.t;
          (** the {e full} join predicate, re-verified per candidate pair
              — hashing only accelerates, equality semantics stay
              {!Value.cmp}'s *)
      left : t;
      right : t;
    }
  | Merge_union of t * t
      (** concatenates its inputs' batches; coinciding rows max-merge
          (Equation (4)) where the result is materialised *)
  | Merge_intersect of t * t
  | Merge_diff of t * t
      (** linear merges over the sorted tuple order of both inputs,
          each materialised into a set first; the difference's merge
          also finds its first reappearance (Section 2.6.2) *)
  | Grouped_aggregate of {
      group : int list;
      func : Aggregate.func;
      having : Predicate.t option;
      projection : int list;
      child : t;
    }
      (** the fused aggregate → HAVING → projection pipeline, executed
          over expiration-slice partials ({!Partial_agg}) — the same
          condensed form shards ship to the cluster coordinator.  The
          one aggregate node: the planner accepts an aggregate only in
          the shape sqlx lowers GROUP BY to, where the projection and
          HAVING touch nothing but GROUP BY positions and the aggregate
          at [child_arity + 1] *)
  | Sketch_count of {
      epsilon : float;
      child : t;
    }
      (** [APPROX_COUNT(eps)]: folds the child into a bounded-memory
          expiration-axis counter and answers with an estimate and its
          error bound — the one physical operator with no logical
          counterpart whose {e results} differ from exact evaluation,
          by design and within an advertised [within] *)
  | Sketch_sample of {
      k : int;
      child : t;
    }
      (** [SAMPLE(k)]: a uniform sample of [k] live child rows from a
          priority sketch *)

type compiled = {
  logical : Algebra.t;  (** kept for well-formedness checks and EXPLAIN *)
  physical : t;
}

val operator_name : t -> string
(** Canonical lower-case physical operator name ([seq-scan],
    [index-scan], [filter], [project], [nested-loop], [hash-join],
    [merge-union], [merge-intersect], [merge-diff], [aggregate],
    [sketch-count], [sketch-sample], [exchange]) — the
    vocabulary EXPLAIN plan lines and per-operator [op:<name>] trace
    spans share, replacing the logical {!Algebra.operator_name}s on the
    physical execution path. *)

val operator_span : t -> Expirel_obs.Trace.name
(** The interned [op:<name>] span name of {!operator_name}. *)

val children : t -> t list
(** Direct sub-plans, left before right — the order the executor's
    [op:] spans nest in, which [EXPLAIN ANALYZE] pairs them by. *)

val describe : t -> string
(** One node's un-indented {!pp} line (operator, access path, keys,
    predicates) without its children — lets annotated renderings
    (EXPLAIN ANALYZE) reuse the exact plan vocabulary. *)

val render : (t -> string) -> t -> string
(** The indented plan tree, one [line] of each node per line. *)

val to_string : t -> string
(** {!render} of {!describe}: access paths, join keys, exchanges. *)

val exchanges : t -> exchange list
(** The exchange leaves, in the order the tree lists them. *)
