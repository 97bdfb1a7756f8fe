(** Access-path selection: which secondary index, if any, serves a
    selection over a stored table, or the cut scan — by estimate at the
    query's [tau]: an index path costs the index rows in its key range
    ({!Texp_run.count_range}, O(log n)), the cut scan the live rows
    ({!Table.live_estimate}), and the cheaper wins.  The executor's scan
    leaf runs the chosen path; this module only plans.

    An index on a column is usable for a conjunct [col = c] or
    [col < c] / [<=] / [>] / [>=] when the stored keys are
    type-homogeneous with the constant (checked against the index's key
    extrema — mixed-type columns fall back to scanning, keeping the
    result identical to the reference evaluation).  The full predicate is
    always re-applied to the candidates, so index choice affects cost
    only, never results. *)

open Expirel_core

type plan =
  | Full_scan
  | Never_matches  (** a conjunct compares against [Null]: no tuple passes *)
  | Index of {
      column : int;
      lo : Texp_run.bound;
      hi : Texp_run.bound;
    }
      (** the column's index conjuncts intersected into one key range
          (an equality probe when both bounds include one value) *)

val plan : Table.t -> tau:Time.t -> Predicate.t -> plan
(** The access path chosen for evaluating the predicate over the table
    at [tau]. *)

val path : Table.t -> Predicate.t -> column:int -> plan
(** The index path on [column] that {!plan} weighs for the predicate —
    the ranges of the conjuncts the column's index serves, intersected
    — without weighing it against the other paths; [Full_scan] when the
    index serves none of them. *)

val entries : Table.t -> plan -> int
(** The index rows in a path's key range, or the table's physical rows. *)

val pp_plan : Format.formatter -> plan -> unit
