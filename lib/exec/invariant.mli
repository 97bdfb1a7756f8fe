(** Integrity constraints over expiring data (Section 1: "triggers can
    be supported that fire on expirations, as can integrity constraint
    checking").

    Because every tuple's lifetime is known, constraint violations
    caused by expiration are {e predictable}: the exact future times a
    constraint breaks if nothing is inserted can be named ahead —
    letting an application top up a quorum, renew a credential or
    prefetch a replacement {e before} the violation, rather than
    detecting it after the fact.  The interpreter keeps each
    constraint's query as a standing entry and counts its live rows
    along the entry's walk ({!Subscription.count}); this module is the
    bounds it checks them against. *)

type bounds = {
  min_rows : int option;  (** the result must always hold at least n rows *)
  max_rows : int option;  (** ... at most n rows *)
}

val check_bounds : bounds -> unit
(** @raise Invalid_argument on a non-positive bound, or a MIN above the
    MAX *)

val violated : bounds -> int -> bool
(** Whether a result of that cardinality breaks either bound. *)
