(** Access-path selection: which secondary index, if any, serves a
    selection over a stored table, with a full scan as fallback.  The
    executor's scan leaf runs the chosen path; this module only plans.

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
  | Index_eq of {
      column : int;
      value : Value.t;
    }
  | Index_range of {
      column : int;
      lo : Ordered_index.bound;
      hi : Ordered_index.bound;
    }

val plan : Table.t -> Predicate.t -> plan
(** The access path chosen for evaluating the predicate over the table. *)

val pp_plan : Format.formatter -> plan -> unit
