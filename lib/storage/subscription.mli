(** Continuous queries over expiring data: subscribe a handler to an
    algebra expression and receive events at the {e exact} logical times
    at which the materialised result changes — rows leaving as they
    expire (the abstract's "triggers fire due to the expiration of a
    tuple", applied to query results), rows (re)appearing when a
    non-monotonic result is locally refreshed at [texp(e)].

    Because all future expirations are known, no polling is involved:
    {!advance} walks the exact change times in order. *)

open Expirel_core

type event =
  | Row_expired of {
      subscription : string;
      tuple : Tuple.t;
      at : Time.t;  (** the row's expiration time *)
    }
  | Row_appeared of {
      subscription : string;
      tuple : Tuple.t;
      texp : Time.t;
      at : Time.t;
    }
  | Refreshed of {
      subscription : string;
      at : Time.t;  (** the [texp(e)] that forced the refresh *)
    }

type handler = event -> unit

type t

val create : Database.t -> t
(** The manager drives (and stays synchronised with) the database's
    clock: move time only through {!advance}. *)

val subscribe : t -> name:string -> Algebra.t -> handler -> unit
(** Materialises the expression now and starts watching it.
    @raise Invalid_argument when the name is taken
    @raise Errors.Unknown_relation / {!Errors.Arity_mismatch} like
    {!Eval.run} *)

val unsubscribe : t -> string -> bool
val names : t -> string list

val current : t -> string -> Relation.t
(** The subscription's result at the current time.
    @raise Not_found for unknown names *)

val advance : t -> Time.t -> unit
(** Advances the database clock and fires, per subscription (in name
    order) and in ascending time order within each, every change event
    in the interval.  Ties at one instant fire expirations first, then
    the refresh, then appearances.
    @raise Invalid_argument when moving backwards or to [Inf] *)

val forecast_events : t -> until:Time.t -> int
(** How many events an {!advance} (or {!deliver_until}) to [until]
    would fire, across every subscription — without firing handlers or
    touching any watch or clock state.  Exact, not an estimate: the
    change-time walk is replayed against a private copy of each watch's
    materialisation, and logical time makes the future deterministic.
    [0] when [until] is infinite or not beyond the current clock.  This
    is the fan-out forecast the observability horizon exports. *)

val deliver_until : t -> Time.t -> unit
(** Exactly {!advance}'s event delivery — every change event in the
    interval from the current clock up to the target, same ordering —
    but {e without} moving the database clock.  For callers that move
    the clock through another manager immediately afterwards (the
    network server advances through the interpreter so integrity
    constraints and maintained views stay in step).  Each watch keeps
    only the rows live at the target, so calling this and never
    advancing leaves the watches ahead of the clock: {!current} no
    longer lists the rows already reported expired, and the next
    delivery resumes from the clock without reporting them again.
    One delivery costs one pass over each watch's rows plus a sort of
    the rows due before its next refresh or the target (again after
    each refresh), and O(1) per event fired.
    @raise Invalid_argument when moving backwards or to [Inf] *)
