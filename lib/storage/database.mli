(** A catalogue of expiring tables with a logical clock, expiration
    policies (Section 3.2), expiration triggers and evaluation of
    algebra expressions against the current state.

    The clock only moves forward.  Under the {!policy.Eager} policy,
    advancing the clock physically removes expired tuples immediately and
    fires triggers at the tuples' expiration times; under {!policy.Lazy},
    expired tuples merely become invisible (snapshots always filter
    through [exp_tau]) and are reclaimed — and their triggers fired, late
    — on the next {!vacuum}. *)

open Expirel_core

type policy =
  | Eager
  | Lazy

type t

val create : ?policy:policy -> unit -> t
(** The policy defaults to [Eager]. *)

val policy : t -> policy
val now : t -> Time.t
val triggers : t -> Trigger.registry

val generation : t -> int
(** Catalog generation: a monotone counter bumped by {!create_table},
    {!drop_table} and {!bump_generation}.  Plan caches key on it so any
    DDL (including secondary-index changes, which callers signal via
    {!bump_generation}) invalidates every cached physical plan in
    O(1). *)

val bump_generation : t -> unit
(** Explicitly advance the catalog generation — called by layers that
    change planning-relevant state the database cannot see itself (e.g.
    creating or dropping a secondary index on a table). *)

val create_table : t -> name:string -> columns:string list -> Table.t
(** @raise Invalid_argument when the name is taken *)

val drop_table : t -> string -> bool
val table : t -> string -> Table.t option
val table_exn : t -> string -> Table.t
val table_names : t -> string list

val pending_expirations : t -> int
(** Sum of {!Table.physical_count} over every table: the rows held,
    immortal and expired-but-unvacuumed ones included, awaiting
    expiration — the backlog that advances and vacuums work through. *)

val live_rows : t -> int
(** Sum of {!Table.live_estimate} over every table — the denominator of
    the "what fraction of the database expires soon?" storm ratio. *)

val expiring_within : t -> bounds:int array -> (string * int array) list
(** Per-table forward expiration profile at the current clock, in table
    name order: {!Table.expiring_within} for every table.  [bounds] are
    ascending tick deltas ([max_int] = +Inf); each table's array sums to
    its live count. *)

val inserted_total : t -> int
(** Rows accepted by {!insert} (and its wrappers) since creation — a
    monotone arrival counter for churn-rate telemetry. *)

val expired_total : t -> int
(** Expirations observed since creation: counted at {!advance_to} under
    the eager policy, at {!vacuum} under the lazy one — monotone, for
    churn-rate telemetry. *)

val insert : t -> string -> Tuple.t -> texp:Time.t -> unit
(** @raise Errors.Unknown_relation / [Invalid_argument] on arity issues.
    @raise Invalid_argument when [texp <= now] (the tuple would be born
    expired) *)

val insert_ttl : t -> string -> Tuple.t -> ttl:int -> unit
(** Expiration time [now + ttl].
    @raise Invalid_argument when [ttl <= 0] *)

val insert_values : t -> string -> Value.t list -> texp:Time.t -> unit
val delete : t -> string -> Tuple.t -> bool

val advance_to : t -> Time.t -> unit
(** Moves the clock.  Eager policy: expires due tuples across all tables
    in global [(texp, table, tuple)] order, firing triggers with
    [fired_at] equal to each tuple's expiration time.  Lazy policy: just
    moves the clock.
    @raise Invalid_argument when moving backwards or to [Inf] *)

val tick : t -> unit
(** [advance_to] by one. *)

val vacuum : t -> int
(** Physically reclaims expired tuples in every table (the lazy policy's
    delayed removal), firing their triggers with [fired_at = now].
    Returns the number reclaimed.  A no-op under [Eager]. *)

(** {1 Records: the unit of state change} *)

val validate : t -> Wal.record -> unit
(** Refuses, changing nothing, a record that does not apply to the
    current state as written: an existing table, an unknown table, an
    arity mismatch, [texp <= now], a [Delete] of a tuple the table does
    not hold, a backwards or infinite [Advance].
    @raise Errors.Unknown_relation / [Invalid_argument], with the typed
    mutator's message *)

val applies : t -> Wal.record -> bool
(** [true] when {!validate} accepts the record. *)

val apply : t -> Wal.record -> unit
(** How a record changes a database, through the typed mutators above.
    Apply only a record {!validate} accepts: any other gets the typed
    mutator's answer (its exception, or nothing for a drop or delete of
    what is absent). *)

val snapshot : t -> string -> Relation.t
(** Logical state of a table at the current clock. *)

val env : t -> Eval.env
(** Evaluation environment over the current logical states: what the
    naive [Eval] oracle reads. *)

val query :
  ?strategy:Aggregate.strategy ->
  ?probe:(string -> (unit -> Eval.result) -> Eval.result) ->
  t -> Algebra.t -> Eval.result
(** Evaluates at the current clock.  [probe] is passed to {!Eval.run}
    to time each operator node. *)
