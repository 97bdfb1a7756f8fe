(** The sqlx interpreter: a database session with materialised views,
    and the one owner of standing queries.

    Views follow the paper's maintenance discipline: a view materialised
    at time [tau] serves reads from its own contents — tuples vanish from
    it as they expire — until its expression expiration time [texp(e)]
    passes, at which point reading it triggers a recomputation (reported
    in the outcome).  Monotonic views therefore never recompute
    (Theorem 1).

    Every change to the session's data is one {!Expirel_storage.Wal.record}
    written through {!write}: SQL mutations, clock moves, a replica's
    shipped records, a shard's rebalance rows; it also reaches every
    standing query: constraints ([CREATE CONSTRAINT]), watches
    ({!subscribe}) and [MAINTAINED] views, each an entry of the one
    standing engine ({!Expirel_exec.Subscription}).  Every clock move —
    [ADVANCE], [TICK], and a replica's shipped [Advance]
    ({!apply_records}) — goes through one function: it walks each
    entry from the clock to the target (watch events fire, each
    constraint's live rows are counted into its transitions into
    violation, under a [deliver] trace span), then writes the [Advance]
    (under [storage]).  [SHOW CONSTRAINTS] replays the constraints'
    entries without committing: it runs a plan only where the walk
    refreshes a non-monotone query at its [texp(e)].  [DROP TABLE] is
    refused while any standing query reads the table, and the refusal
    names them all. *)

open Expirel_core
open Expirel_storage

type t

val create :
  ?policy:Database.policy -> ?store:Durable.t -> unit -> t
(** With [?store], the session runs over the store's database and every
    {!write} is written ahead to its log ([policy] is then ignored — the
    store fixed it when the directory was opened).  [CHECKPOINT] only
    works on such sessions. *)

val database : t -> Database.t

val statement_capacity : int
(** The statement cache's entries (64): the statement shapes a node
    keeps plans, and standing grouped COUNTs, for. *)

type prepared = private plan_entry Statement_cache.prepared
and plan_entry
(** A statement read through the session's statement cache
    ({!prepare}), or from elsewhere ({!exec}). *)

val prepare : t -> string -> prepared
(** Reads one statement through the statement cache
    ({!Statement_cache.prepare}): a text of a cached shape — the same
    text, or the same text with other literals — skips the parser,
    which costs several times more than lowering and planning
    combined, and its run ({!run}) skips those too.
    @raise Parser.Error like {!Parser.parse_statement} *)

val statement : prepared -> Ast.statement

type outcome =
  | Msg of string
  | Rows of {
      columns : string list;
      relation : Relation.t;
      listing : (Tuple.t * Time.t) list Lazy.t;
          (** the rows in presentation order (ORDER BY / LIMIT applied);
              always consistent with [relation] up to order and
              truncation.  Built when forced: a server that ships only
              what changed since a connection's last read never lists
              the answer *)
      texp_e : Time.t;
          (** the expression-level expiration time [texp(e)] of the
              result (Section 2.5) — what a remote cache needs to know
              how long the shipped materialisation stays maintainable by
              local expiration alone; [Inf] for maintained views *)
      recomputed : bool;  (** a view read forced a recomputation *)
    }

val order_and_limit :
  columns:string list ->
  order_by:(Ast.column_ref * Ast.direction) list ->
  limit:int option ->
  Relation.t ->
  (Tuple.t * Time.t) list
(** The presentation of a result: rows in tuple order, stably sorted by
    the ORDER BY labels (resolved by {!Lower.order_by_position}), then
    cut to LIMIT — the one presentation of a single node's and a
    cluster coordinator's answers.  The labels resolve once the three
    named arguments are given, before any relation is.
    @raise Lower.Error on an unknown or ambiguous ORDER BY column *)

val at_tau : now:Time.t -> int option -> Time.t option
(** A query's [AT n] as its evaluation time against the clock [now]
    ([None] without [AT]): the known future, never the past — the one
    check a node and a cluster coordinator share.
    @raise Failure "AT time is in the past (the past is not retained)"
    when [n] is before [now] *)

type plan_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

val plan_cache_stats : t -> plan_cache_stats
(** Counters for the session's statement cache: one 64-entry LRU keyed
    by statement shape ({!Shape}), each entry holding a parse of the
    shape ({!prepare}) and its physical plan, stamped with the catalog
    generation it was made under.  A query is lowered and planned once
    per shape and generation: a request with other constants in its
    conditions runs the cached plan with its own constants
    ({!Expirel_exec.Planner.rebind}), and only another [SAMPLE] size or
    [APPROX_COUNT] bound replans.  Any DDL — CREATE/DROP TABLE,
    CREATE/DROP INDEX — bumps the generation and invalidates every
    cached plan at once.  [hits] and [misses] count one per planning
    request read through the cache (a query, EXPLAIN, EXPLAIN ANALYZE,
    a DELETE, a shard partial); [entries] counts the cached shapes. *)

val view_horizons : t -> (string * Time.t) list
(** [texp(e)] horizon per view, sorted by name: how long each
    materialisation stays maintainable by local expiration alone.
    Maintained views report [Inf] (writes and clock moves keep them
    current); plain views report their current [texp(e)].  The
    observability layer exposes these as gauges. *)

val horizon : ?table:string -> t -> Expirel_obs.Horizon.report
(** The forward expiration profile at the current clock — per-table
    bucketed counts of live rows by ticks-to-expiry
    ({!Database.expiring_within} over {!Expirel_obs.Horizon.default_bounds})
    plus churn rates from the interpreter's sliding-window tracker, and
    [fanout_events]: exactly the events an [ADVANCE] to [now + window]
    would deliver to the session's watches
    ({!Expirel_exec.Subscription.forecast_events}, one walk per watch).
    [table] restricts the profile to one table.
    @raise Errors.Unknown_relation for an unknown [table] *)

val horizon_tables : t -> Expirel_obs.Horizon.table list
(** {!horizon}'s [tables] alone, every table — for gauges that must not
    pay the fan-out forecast's walks. *)

val churn_rates : t -> float * float
(** {!horizon}'s [(arrival_rate, expiration_rate)] alone, sampled at the
    current clock. *)

val fanout_forecast : t -> int
(** {!horizon}'s [fanout_events] alone: no table profile, no churn
    sample. *)

type agg_groups =
  | Condensed of Expirel_exec.Partial_agg.t
      (** folded from the child's rows by {!Expirel_exec.Executor.partial} *)
  | Standing of Expirel_exec.Partial_agg.standing
      (** a grouped COUNT's standing groups at the clock
          ({!Expirel_exec.Subscription.standing}) *)
(** A shard's groups for a distributed grouped aggregate. *)

type _ want =
  | Answer : outcome want  (** the statement's outcome *)
  | Agg_partial : bool -> (string list * agg_groups * Time.t) want
      (** a shard's half of a distributed grouped aggregate; [true] when
          its reader held this node's groups before *)
  | Sketch_partial : (string list * Expirel_sketch.Any.t) want
      (** a shard's half of a distributed approximate aggregate *)
(** What {!run} answers with: the statement's own outcome, or one of
    the two partials a cluster coordinator asks a shard for. *)

val run :
  ?trace:Expirel_obs.Trace.t ->
  'a want ->
  t ->
  prepared ->
  ('a, string) result
(** The one statement entry: a client's statement and each kind of
    shard request run here, under {!guard}, so a statement error
    answers [Error] with the same text however the statement arrived.
    [trace] is as for {!exec}.  A statement {!prepare}d with a cache
    entry plans through it (see {!plan_cache_stats}).

    [Answer] is {!exec}.

    [Agg_partial] requires a query whose plan is the fused grouped
    aggregate over one table's scan (the shape a coordinator plans a
    partials exchange for, {!Expirel_exec.Planner.distribute}), and
    condenses that child's local rows into expiration-slice
    partials.  The query runs through {!Expirel_exec.Executor.partial}
    — at the statement's [AT] time when it has one — whose fused
    aggregate folds the child's cut batches under an [op:aggregate]
    span.  It answers the final answer's column labels, the
    [Condensed] partial and the child's texp(e); the coordinator merges
    one partial per shard with {!Expirel_exec.Partial_agg.merge_all}
    and finalises with the same aggregate's parameters.  The plan and
    a grouped COUNT's standing entry are shared with [Answer]'s: a
    grouped COUNT over a scan without [AT] whose standing entry exists
    (or is promoted now: on a repeated text's plan-cache hit, or at
    once when the reader held this node's groups before) answers
    [Standing] and [Inf].

    [Sketch_partial] requires a query carrying [APPROX_COUNT] or
    [SAMPLE] and runs it up to its sketch operator
    ({!Expirel_exec.Executor.sketch}) at the current clock ([AT] is
    ignored: the partial covers the whole expiration axis).  It answers
    the folded sketch with the answer's column labels, so the
    coordinator can {!Expirel_sketch.Any.merge} every shard's partial
    and render rows from the union.  The run sits under a
    [sketch-query] span; the fold records the sketch's gauges in
    {!Expirel_sketch.Observatory}.

    A partial of a statement that is not a query, or of a query of the
    wrong shape, answers [Error]. *)

val guard : (unit -> 'a) -> ('a, string) result
(** The one mapping of statement errors to answers: an unknown
    relation, an arity mismatch, a lowering error, [Invalid_argument]
    and [Failure] become [Error] with their text; anything else
    propagates. *)

val exec :
  ?trace:Expirel_obs.Trace.t ->
  t ->
  Ast.statement ->
  (outcome, string) result
(** [run Answer] of a statement from elsewhere, uncached: its outcome,
    or its error's text.

    [trace], when given, records spans for the statement's stages —
    [lower] and [plan] for queries on a plan-cache miss, [eval] always
    (with per-operator [op:<name>] child spans named after the physical
    operators), [storage] around state mutation — onto the caller's
    per-request trace.

    A grouped COUNT over a scan ({!Expirel_exec.Subscription.counted})
    without [AT], {!run} through the statement cache, is promoted when
    its text is read again (the session remembers the last 64 such
    texts) with its plan from the cache, to a standing entry that every
    {!write} and clock move keeps current; later runs of the same text
    read it under the same [eval] and [op:aggregate] spans, O(groups)
    instead of a fold of every row.  Standing entries stay keyed by
    verbatim text.  An entry ends when its text is forgotten, when the
    statement cache evicts its shape, at any catalog change and at
    {!install_snapshot}; a read that finds it missed a mutation
    bypassing {!write} (a raw {!Database.insert}) rebuilds it.  Entries
    never block DROP TABLE, which ends them. *)

val subscribe :
  t -> name:string -> Ast.statement -> Expirel_exec.Subscription.handler ->
  (unit, string) result
(** Starts a watch over a plain query (no [AT]; [ORDER BY] and [LIMIT]
    are ignored), planned once: the handler receives its change events
    at their exact logical times, from inside the clock move, before the
    move returns.  [Error] for a taken name, a statement that is not a
    query, [APPROX_COUNT]/[SAMPLE], and lowering failures. *)

val unsubscribe : t -> string -> bool
(** Ends a watch; [false] when no watch has that name. *)

val write :
  ?trace:Expirel_obs.Trace.t -> t -> Expirel_storage.Wal.record -> unit
(** The one function that changes the session's data: validates the
    record, writes it ahead when there is a store, applies it, and feeds
    it to the constraints, watches and MAINTAINED views
    ({!Expirel_exec.Subscription.write}, traced on [trace]).  An
    [Advance] written here walks no standing query; SQL [ADVANCE] and
    {!apply_records} walk them first.  Raises what {!Database.validate}
    raises, changing nothing. *)

val apply_records : t -> Expirel_storage.Wal.record list -> (unit, string) result
(** Applies a replica's shipped records, each written once through
    {!write} (one the replica refuses, as the no-op [Advance now]), so
    log positions stay the primary's.  A shipped [Advance] goes through
    the one clock move, so the replica's watches see their events; a
    shipped [Drop_table] ends every standing query reading the table (no
    event marks the end).  [Error] without a durable store. *)

val install_snapshot :
  t -> position:int -> Expirel_storage.Wal.record list -> (unit, string) result
(** Replaces the whole state with a replica's shipped snapshot
    ({!Expirel_storage.Durable.reset_to}); every watch and constraint
    reading a table the snapshot no longer holds ends, as under a
    shipped [Drop_table], every other constraint, watch and MAINTAINED
    view is rebuilt from the installed state at its clock, and every promoted
    query ends.  The clock jump it may carry delivers no events.
    [Error] without a durable store. *)

val standing_aggregates : t -> int * int
(** The promoted grouped COUNT queries (see {!exec}), and the groups
    every grouped COUNT entry holds, constraints, watches and views
    included. *)

val exec_sql : t -> string -> (outcome, string) result
(** {!prepare} and {!run} one statement: a repeated shape skips the
    parser, lowering and planning. *)

val exec_script : t -> string -> (outcome, string) result list
(** Execute a [;]-separated script, one result per statement; execution
    continues past failed statements. *)

val render : outcome -> string
(** Human-readable rendering (tables in the paper's style). *)
