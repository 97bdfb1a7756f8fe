(** The loosely-coupled simulation with the no-update assumption lifted:
    the server's base relations receive upserts and deletes while a
    remote client serves a materialised view.

    Under updates, purely expiration-based maintenance is no longer
    sufficient — {!strategy.Expiration_aware} now serves stale data
    between its [texp(e)] refetches, quantifying exactly what the
    paper's standing assumption buys.  Two update-aware strategies
    restore correctness:

    - {!strategy.Refetch_on_change}: the server notifies the client on
      every relevant update; the client refetches the whole result (and
      still refetches at [texp(e)]).
    - {!strategy.Delta_push}: the client holds an incrementally
      maintained replica ({!Expirel_paper.Maintained}); the server pushes
      tuple-sized deltas and the replica expires locally — combining the
      paper's expiration machinery with incremental view maintenance,
      its stated future direction. *)

open Expirel_core

type base_change = {
  at : int;  (** tick at which the update is applied, before serving *)
  relation : string;
  change : [ `Upsert of Tuple.t * Time.t | `Delete of Tuple.t ];
}

type strategy =
  | Poll of int
  | Expiration_aware
  | Refetch_on_change
  | Delta_push

type config = {
  horizon : int;
  strategy : strategy;
}

type report = {
  strategy : strategy;
  metrics : Metrics.t;
}

val run :
  bindings:(string * Relation.t) list ->
  expr:Algebra.t ->
  updates:base_change list ->
  config ->
  report
(** Updates must be sorted by [at]; upsert expiration times must exceed
    their tick.
    @raise Invalid_argument on a non-positive horizon/poll period or
    unsorted updates *)

val strategy_label : strategy -> string
