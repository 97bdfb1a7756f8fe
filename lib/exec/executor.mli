(** Physical plan execution.

    Produces exactly what the naive {!Eval} produces for the corresponding
    logical expression — result tuples, their expiration times, and the
    expression-level [texp(e)] (Equations (1)–(11)) — while running the
    physical operators the planner chose.  Every operator yields
    columnar {!Batch.t}s, from the texp-ordered scan leaves up; the
    result is materialised once, at the root.  The set-semantics
    operators (intersection, difference) take their inputs as sets and
    re-enter batch form with their answer; the difference's merge finds
    its first reappearance itself.  The executor calls no {!Ops}
    kernel: the qcheck plan-equivalence suite holds it to
    [Relation.equal] (including texps) against the naive evaluator. *)

open Expirel_core
open Expirel_storage

(** A transport's answer to an exchange, one part per shard it
    contacted: rows with the answer's [texp(e)], partials with the
    child's, or sketches — or, for a partials exchange answered from
    state the transport keeps, the aggregate's finalised answer. *)
type reply =
  | Rows of ((Value.t list * Time.t) list * Time.t) list
  | Partials of (Partial_agg.t * Time.t) list
  | Finalised of Eval.result
  | Sketches of Expirel_sketch.Any.t list

type transport = Plan.exchange -> reply
(** A cluster coordinator's fan-out; it raises what it cannot answer. *)

val run :
  ?trace:Expirel_obs.Trace.t ->
  ?tau:Time.t ->
  ?db:Database.t ->
  ?transport:transport ->
  Plan.compiled ->
  Eval.result
(** Evaluates the plan against the database's state as it stands at
    [tau] (default: the database clock; it must not be earlier).  A
    later [tau] answers [AT tau]: the current state with every row
    expired by then cut away.  Scans need [db]; a plan of exchanges
    needs only [tau].

    [transport] answers every {!Plan.Exchange} before any operator
    runs; the answers then merge under one [merge] span with the
    operators a node runs: a rows exchange is the union of the shards'
    rows ({!Relation.union_max}, each cut at [tau]) with the least of
    their [texp(e)]s, not re-batched at the root; a partials exchange
    feeds its aggregate {!Partial_agg.merge_all} and the one
    finalisation; a sketch exchange feeds its sketch operator the
    shards' sketches merged.
    On [trace], every physical operator node runs in one
    [op:<]{!Plan.operator_name}[>] span, nested as {!Plan.children},
    labelled with its output [rows] and, where it has them, its
    counters: [batches] (batches yielded), [dropped] (rows a scan's
    [tau] cut discarded: the per-operator expiration churn of
    Section 3.2), [visited] (index rows examined), [cut_skipped]
    (expired rows a batch scan skipped without a per-row comparison),
    [build] (a hash join's build rows) and [sketch_bytes].  The root's
    materialisation runs outside every operator span.  Untraced, the
    executor opens no span and formats no label.
    @raise Errors.Unknown_relation / Errors.Arity_mismatch as the naive
    {!Eval} would for the same logical expression, given [db].
    @raise Invalid_argument on a scan without [db], an exchange without
    [transport], or a reply it did not want; [Failure] on sketches that
    do not merge. *)

val partial :
  ?trace:Expirel_obs.Trace.t ->
  ?tau:Time.t ->
  db:Database.t ->
  Plan.compiled ->
  Partial_agg.t * Time.t
(** The shard side of a distributed GROUP BY: runs a plan whose root is
    a fused {!Plan.Grouped_aggregate} at [tau] (as in {!run}) up to, not
    including, its finalisation, and returns the child's
    expiration-slice partial and the child's [texp(e)].  The child is
    condensed exactly as {!run} condenses it — from batches straight
    through the accumulator unless a projection below may have made
    rows coincide — under one [op:aggregate] span labelled with the
    partial's group count as [rows]; the HAVING predicate and the
    projection are left to whoever finalises.
    @raise Invalid_argument when the root is not a fused grouped
    aggregate. *)

val sketch :
  ?trace:Expirel_obs.Trace.t ->
  ?tau:Time.t ->
  db:Database.t ->
  Plan.compiled ->
  Expirel_sketch.Any.t
(** The shard side of a distributed approximate aggregate: runs a plan
    whose root is a sketch operator at [tau] (as in {!run}) and returns
    the root's sketch, folded and recorded in the sketch observatory
    exactly as {!run}'s sketch operator folds it, instead of its
    answer.
    @raise Invalid_argument when the root is not a sketch operator. *)

val analyze :
  trace:Expirel_obs.Trace.t -> db:Database.t -> Plan.compiled -> string
(** [EXPLAIN ANALYZE]: runs the plan at the clock as {!run} does under
    [trace], then renders that run's op spans — each {!Plan.describe}
    line annotated with the planner's estimate
    ({!Planner.estimate_rows}), the span's row count and counters and
    its inclusive time — followed by the answer's cardinality, its
    [texp(e)], the scans' total [dropped] and the root span's time. *)
