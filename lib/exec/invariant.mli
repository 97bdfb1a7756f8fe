(** Integrity constraints over expiring data (Section 1: "triggers can
    be supported that fire on expirations, as can integrity constraint
    checking").

    Because every tuple's lifetime is known, constraint violations
    caused by expiration are {e predictable}: {!forecast} names the
    exact future times a constraint breaks if nothing is inserted —
    letting an application top up a quorum, renew a credential or
    prefetch a replacement {e before} the violation, rather than
    detecting it after the fact.  The interpreter owns the registry;
    this module is the counting walk it runs per constraint. *)

open Expirel_core
open Expirel_storage

type bounds = {
  min_rows : int option;  (** the result must always hold at least n rows *)
  max_rows : int option;  (** ... at most n rows *)
}

val check_bounds : bounds -> unit
(** @raise Invalid_argument on a non-positive bound *)

val violated : bounds -> int -> bool
(** Whether a result of that cardinality breaks either bound. *)

type forecast = {
  cardinality : int;  (** the result's cardinality at the clock *)
  transitions : (Time.t * int) list;
      (** each instant in [\]clock, to_\]] at which the constraint turns
          violated, with the cardinality then, oldest first *)
}

val forecast :
  db:Database.t -> Plan.compiled -> bounds -> to_:Time.t -> first:bool ->
  forecast
(** Runs the plan once at the clock, then {!Subscription.walk}s the
    known expiration times and [texp(e)] refreshes of its result,
    counting the cardinality along (−1 per row leaving, +1 per row
    appearing) and checking both bounds once per instant, assuming no
    further updates: O(n log n + events).  [first] asks only for the
    next violation of a constraint that holds now: the walk stops at
    the first transition, and walks nothing when the constraint is
    already violated.
    @raise Errors.Unknown_relation / {!Errors.Arity_mismatch} like
    {!Executor.run} *)
