(** Continuous queries over expiring data: subscribe a handler to a
    planned query and receive events at the {e exact} logical times
    at which the materialised result changes — rows leaving as they
    expire (the abstract's "triggers fire due to the expiration of a
    tuple", applied to query results), rows (re)appearing when a
    non-monotonic result is locally refreshed at [texp(e)].

    Because all future expirations are known, no polling is involved:
    {!walk} visits the exact change times in order.  It is the one
    change-time walk of every standing query: watches deliver through
    it, and {!Invariant} counts a constraint's cardinality along it.
    A write reaches it through {!write}.  The interpreter owns the
    registries and calls {!deliver_until} right before it moves the
    clock, {!write} right after it applies a record. *)

open Expirel_core
open Expirel_storage

type event =
  | Row_expired of {
      subscription : string;
      tuple : Tuple.t;
      at : Time.t;
          (** the row's expiration time, the [texp(e)] of a refresh
              that drops the row or changes its expiration time, or the
              instant a write removed or re-dated it *)
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
(** A registry over the database; it never moves the clock itself. *)

val subscribe : t -> name:string -> Plan.compiled -> handler -> unit
(** Runs the plan at the clock and starts watching its result; the
    plan is kept and rerun at every [texp(e)] refresh.
    @raise Invalid_argument when the name is taken
    @raise Errors.Unknown_relation / {!Errors.Arity_mismatch} like
    {!Executor.run} *)

val unsubscribe : t -> string -> bool

val result : t -> string -> Eval.result option
(** The named watch's result as of its last delivery or write, uncut. *)

val readers : t -> string -> string list
(** The watches whose query reads the named table, in name order — a
    table under a watch must not be dropped, or every later delivery
    would fail on it. *)

val forecast_events : t -> until:Time.t -> int
(** How many events a {!deliver_until} to [until] would fire, across
    every subscription — without firing handlers or touching any watch
    or clock state.  Exact, not an estimate: each
    watch's {!walk} is replayed, and logical time makes the future
    deterministic.  [0] when [until] is infinite or not beyond the
    current clock.  This is the fan-out forecast the observability
    horizon exports. *)

val deliver_until : t -> Time.t -> unit
(** Fires, per subscription (in name order) and in ascending time order
    within each, every change event in the interval from the current
    clock up to the target.  Ties at one instant fire expirations first,
    then the refresh, then appearances.  It does {e not} move the
    database clock: the caller moves it right after, before the storage
    physically removes the expired rows.  Each watch keeps only the rows
    live at the target, so calling this and never advancing leaves the
    watches ahead of the clock: the next delivery resumes from the clock
    without reporting those rows again.  One delivery is one {!walk} per
    watch.
    @raise Invalid_argument when moving backwards or to [Inf] *)

val write : ?trace:Expirel_obs.Trace.t -> t -> Wal.record -> unit
(** Feeds an applied [Insert] or [Delete] to every watch reading its
    table, in name order, under a [deliver] span; events carry [at =
    now].  A watch over [Base r] or [Select (p, Base r)], either under
    a [Project] permuting r's columns, takes the row as its delta (an
    inserted row satisfying [p] appears, a re-dated one expires first;
    a deleted one expires).  Any other watch reruns at the clock and
    reports the difference as a refresh does, without [Refreshed]. *)

val walk :
  db:Database.t -> name:string -> Plan.compiled -> Eval.result ->
  from:Time.t -> to_:Time.t -> emit:handler -> settle:(Time.t -> bool) ->
  Eval.result
(** [walk ~db ~name plan result ~from ~to_ ~emit ~settle] fires through
    [emit], in {!deliver_until}'s order, every change in [(from, to_]]
    of [result], [plan]'s answer as of [from]: each row at its
    expiration time, and at each [texp(e)] a refresh ([Executor.run
    ~tau] of [plan]) that reports the live rows it drops or re-dates as
    expired and the new or re-dated ones as appeared, so folding the
    events over [result] gives the answer at every instant.  [settle]
    sees each instant after its last event; [false] stops the walk
    there.  Returns the result where the walk stopped, rows not yet
    cut.  Cost: a pass over the result and a sort of the rows due
    before the next refresh or [to_], again after each refresh, and
    O(1) per event —
    O(n log n + events). *)
