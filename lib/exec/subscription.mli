(** Continuous queries over expiring data: subscribe a handler to a
    planned query and receive events at the {e exact} logical times
    at which the materialised result changes — rows leaving as they
    expire (the abstract's "triggers fire due to the expiration of a
    tuple", applied to query results), rows (re)appearing when a
    non-monotonic result is locally refreshed at [texp(e)].

    Because all future expirations are known, no polling is involved:
    one walk visits each entry's exact change times in order.  It is
    the one change-time walk of every standing query: watches deliver
    through it, and a constraint's live rows are counted along it
    ({!count}).  A write reaches it through {!write}.  The interpreter
    owns the registries and calls {!deliver_until} right before it
    moves the clock, {!write} right after it applies a record. *)

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

val subscribe : ?handler:handler -> t -> name:string -> Plan.compiled -> unit
(** {!prepare} then {!install}.
    @raise Invalid_argument when the name is taken
    @raise Errors.Unknown_relation / {!Errors.Arity_mismatch} like
    {!Executor.run} *)

(** {2 Entries}

    An entry keeps its plan's answer current.  A grouped COUNT straight
    over a scan ({!counted}; any pushed-down predicate, HAVING and
    projection) keeps per-group state ({!Partial_agg.standing}): its
    walk steps from one group's earliest member expiry to the next, and
    a step or a write re-finalises only the groups it touches, never
    every group.  Any other entry reruns the plan ([Executor.run ~tau])
    at each [texp(e)] refresh and at each write it cannot take as a
    delta. *)

type entry

val counted : Plan.compiled -> bool
(** A fused [COUNT] grouped aggregate directly over a scan. *)

val prepare : ?handler:handler -> t -> Plan.compiled -> entry
(** The plan's entry at the clock (a run of the plan, or the group state
    built from the table's live rows, O(rows)), registering nothing: a
    caller may build it outside its own lock.  Its events go to
    [handler]; without one nobody listens, and the entry keeps its
    answer current without building any event (a cached GROUP BY, a
    MAINTAINED view). *)

val install : t -> name:string -> entry -> unit
(** Registers the entry, replacing any of that name. *)

val unsubscribe : t -> string -> bool

val reseed : t -> unit
(** Rebuilds every entry from the state at the clock, without events:
    after a snapshot replaced the state under them.  The clock jump in
    between pushes nothing. *)

val length : t -> int

val groups : t -> int
(** Groups held, summed over the grouped COUNT entries. *)

val fresh : t -> string -> entry option
(** The named grouped COUNT entry, while the catalog generation, its
    table's {!Table.generation} and the clock are those its last build,
    {!write} or walk left: [None] after any catalog change, and once a
    mutation bypassed {!write}. *)

val prune : t -> unit
(** Ends every grouped COUNT entry {!fresh} refuses.  Called before a
    record is applied, it keeps {!write} from stamping an entry that
    missed an earlier mutation. *)

val answer : entry -> Eval.result
(** The entry's answer, exact at the clock. *)

val standing : entry -> Partial_agg.standing
(** A grouped COUNT entry's groups, exact at the clock: the persistent
    state itself, so a reader that keeps it can later
    {!Partial_agg.standing_diff} it against the entry's state then.  A
    write or a walk that reaches a group replaces that group's members
    record; every other group's stays physically the same.
    @raise Invalid_argument for any other entry *)

(** {2 Kept grouped COUNT answers}

    The per-group answer state a grouped COUNT entry keeps, shared with
    a cluster coordinator that merges its shards' copies of a group
    ({!Partial_agg.merge_all}): it remembers what each group last
    contributed, so a changed group is re-finalised from its new
    slices alone. *)

type counts

val counts :
  output:(Partial_agg.group -> (Tuple.t * Time.t) option * Time.t) ->
  distinct:bool ->
  arity:int ->
  counts
(** No group yet.  [output] is one group's share of the answer
    ({!Partial_agg.finalizer}); [arity] the answer's.  [distinct] when
    no two groups can share an output row
    ({!Partial_agg.distinct_rows}): a group's row then goes into the
    answer as it is, with no count of the groups behind each row. *)

val rebuild : counts -> Partial_agg.t -> counts
(** [rebuild c groups]: [c]'s groups replaced by every group of a
    partial (ascending by key, as partials hold them) at once — what
    {!regroup} of them makes from no group, built in one pass when no
    two groups share an output row. *)

val counts_answer : counts -> Eval.result
(** The answer the groups make: exact at the instant the groups were
    last expired to. *)

val regroup :
  counts -> (Value.t list * Partial_agg.group option) list -> counts * Tuple.t list
(** [regroup c groups]: [c] with each listed group (each key once) as
    given, [None] for a group gone, and the output rows it touched.
    Only a group whose output row or change point moved is
    re-finalised, O(log) per group, and only an output row whose texp
    moved is rewritten: a call that moves none answers [c]'s relation
    itself. *)

val result : t -> string -> Eval.result option
(** The named watch's result as of its last delivery or write, uncut. *)

val readers : t -> string -> string list
(** The watches whose query reads the named table, in name order — a
    table under a watch must not be dropped, or every later delivery
    would fail on it. *)

val rows : t -> string -> int
(** The named entry's live rows at the clock. *)

type count = string -> Time.t -> before:int -> after:int -> bool
(** A cardinality listener: [count name], applied once per walk of entry
    [name], answers the function that sees, at each instant [at] of the
    walk and after the instant's last event, the entry's live rows
    [before] and [after] the instant's events (−1 per row leaving, +1
    per row appearing).  [false] stops that entry's {!forecast_events}
    replay there. *)

val forecast_events : ?count:count -> t -> until:Time.t -> int
(** How many events a {!deliver_until} to [until] would fire, across
    every subscription — without firing handlers or touching any watch
    or clock state.  Exact, not an estimate: each entry's walk is
    replayed, and logical time makes the future deterministic.  [0]
    when [until] is infinite or not beyond the current clock.  This is
    the fan-out forecast the observability horizon exports and, with
    [count], a constraint's next violation: a replay [count] stops
    counts the events up to there. *)

val deliver_until : ?count:count -> t -> Time.t -> unit
(** Fires, per subscription (in name order) and in ascending time order
    within each, every change event in the interval from the current
    clock up to the target, and reports each instant to [count], whose
    answer is ignored: every walk reaches the target.  Ties at one
    instant fire expirations first, then the refresh, then appearances.
    It does {e not} move the database clock: the caller moves it right
    after, before the storage physically removes the expired rows.
    Each watch keeps only the rows live at the target, so calling this
    and never advancing leaves the watches ahead of the clock: the next
    delivery resumes from the clock without reporting those rows again.
    One delivery is one walk per entry: a fold over only the subtrees
    holding rows due before the next [texp(e)] refresh or the target
    ({!Relation.fold_expired}) and a sort of those rows, again after
    each refresh ([Executor.run ~tau] of the plan, diffed; a grouped
    COUNT steps its group state instead), and O(1) per event —
    O(k log n) for k rows due, plus each refresh's plan run and diff.
    @raise Invalid_argument when moving backwards or to [Inf] *)

val write :
  ?trace:Expirel_obs.Trace.t -> t -> before:Time.t option -> Wal.record -> unit
(** Feeds an applied [Insert] or [Delete] to every entry reading its
    table, in name order, under a [deliver] span; events carry [at =
    now].  [before] is the row's texp before the record
    ({!Table.texp_of}): a re-dated row and a deleted one leave their old
    group through it, and one at or before the clock (expired, maybe
    still stored under [Lazy]) belongs to no group.  A watch over [Base
    r] or [Select (p, Base r)], either under a [Project] permuting r's
    columns, takes the row as its delta (an inserted row satisfying [p]
    appears, a re-dated one expires first; a deleted one expires); a
    grouped COUNT diffs the output rows of the row's group; any other
    entry reruns at the clock and reports the difference as a refresh
    does, without [Refreshed].  Each record stamps the grouped COUNT
    entries it reaches for {!fresh} — an [Advance], those its walk
    brought to the clock. *)
