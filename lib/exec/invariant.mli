(** Integrity constraints over expiring data (Section 1: "triggers can
    be supported that fire on expirations, as can integrity constraint
    checking").

    Because every tuple's lifetime is known, constraint violations
    caused by expiration are {e predictable}: {!next_violation} names
    the exact future time a constraint will break if nothing is
    inserted — letting an application top up a quorum, renew a
    credential or prefetch a replacement {e before} the violation,
    rather than detecting it after the fact. *)

open Expirel_core
open Expirel_storage

type spec =
  | Min_cardinality of int  (** the result must always hold at least n rows *)
  | Max_cardinality of int  (** ... at most n rows *)

type violation = {
  name : string;
  at : Time.t;  (** when the constraint (first) fails *)
  cardinality : int;
  spec : spec;
}

type t

val create : Database.t -> t

val add : t -> name:string -> Plan.compiled -> spec -> unit
(** Registers a constraint over the plan's result.
    @raise Invalid_argument on duplicate names or a non-positive bound
    @raise Errors.Unknown_relation / {!Errors.Arity_mismatch} like
    {!Executor.run} *)

val remove : t -> string -> bool
val names : t -> string list

val check_now : t -> violation list
(** Constraints violated at the current clock, in name order. *)

val next_violation : t -> name:string -> horizon:Time.t -> Time.t option
(** The earliest time in [\]now, horizon\[] at which the constraint
    turns violated, assuming no further updates (a constraint already
    violated now is {!check_now}'s business).  [None] when it does not.
    @raise Not_found for unknown names
    @raise Invalid_argument on an infinite horizon *)

val advance : t -> Time.t -> violation list
(** Advances the database clock and returns, in time order, each
    constraint transition {e into} violation inside the interval.

    Both run each constraint's plan once at the clock and then
    {!Subscription.walk} over the known expiration times and [texp(e)]
    refreshes of its result, counting the cardinality along and
    checking the bound once per instant: O(n log n + events) per
    constraint ({!next_violation} stops at the first violation). *)
