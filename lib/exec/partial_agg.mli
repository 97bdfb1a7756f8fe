(** Decomposed (partial) aggregation — the distributable form of the
    paper's agg^exp (Section 2.6.1).

    A partial condenses a relation fragment into per-group expiration
    slices, ascending by expiration time.  A COUNT slice counts the
    members expiring after the previous slice, up to and including its
    own texp: Table 1 has no neutral COUNT member, so a COUNT group is
    at most two slices — the members expiring at its earliest texp,
    then every other member under its latest.  For SUM, AVG, MIN and
    MAX a slice holds the counts/sums/extrema of the members expiring
    exactly at its texp, one per distinct member texp (the immortal
    ones under [Inf]).  Partials over disjoint fragments merge
    componentwise, and the exact strategy's outputs — the value at
    tau, the change point nu of Equation (9), the partition's
    complete-expiration time — are all recomputable from the merged
    slices.  AVG travels as SUM + COUNT (the [s_fsum]/[s_nonnull]
    components), never as an average, which is what makes it
    combinable across fragments.

    Accumulation is one open-addressing table of groups: slots of group
    ids into dense per-group arrays (key, hash, state).  A batch row
    probes with its GROUP BY values read in place from the columns
    ({!Key} hashes an [Int] and tests it for equality without a call),
    so only a row that opens a group allocates — its key list and its
    state.  A COUNT group is four fields updated in place: O(1)
    expected per row in any order, no allocation.  Any other group keeps its slices ascending
    by expiration time.  A texp-ordered row stream — what a table's
    sorted chunks and sorted insert buffer yield — only updates the
    newest slice or appends one.  An out-of-order row binary-searches
    its group's [s] slices; one opening a new slice waits in a pending
    buffer that is stable-sorted and merged in once it holds [s] rows,
    so it costs O(log s) amortised.  Building a partial costs O(rows)
    expected from a texp-ordered stream (or for COUNT), O(rows · log s)
    from any other, plus O(groups · log groups) for the one sort of the
    group ids by key that makes the result independent of the table's
    layout.  Each slice folds its rows in arrival order, so float sums
    match a per-slice fold of the same stream bit for bit.

    The executor's fused aggregate node, the shard side of a distributed
    GROUP BY ({!Executor.partial}) and the cluster coordinator share
    this module: a single-node grouped query builds one partial and
    finalises it; a distributed one merges one partial per shard and
    runs the very same finalisation. *)

open Expirel_core

type slice = {
  s_texp : Time.t;
      (** the instant these members expire (for COUNT: the latest of
          them); [Inf] = never *)
  s_rows : int;  (** members in the slice *)
  s_nonnull : int;  (** members with a non-null aggregated attribute *)
  s_sum : Value.t;  (** SUM partial; [Null] when no non-null member *)
  s_fsum : float;  (** AVG numerator (non-numeric attrs contribute 0) *)
  s_min : Value.t;  (** MIN partial; [Null] when no non-null member *)
  s_max : Value.t;  (** MAX partial *)
}

type group = {
  key : Value.t list;  (** the GROUP BY attribute values *)
  slices : slice list;  (** ascending [s_texp], the immortal slice last *)
}

type t = group list

val of_relation : group:int list -> func:Aggregate.func -> Relation.t -> t
(** Condense one (properly expired) fragment.  [group] are 1-based child
    positions; the aggregated attribute comes from [func].
    @raise Invalid_argument where [Aggregate.apply] would (a non-numeric
    SUM operand). *)

(** {2 Accumulation}

    The form {!of_relation} folds through, exposed so the executor can
    condense its columnar batches without materialising a tuple. *)

type acc
(** A mutable accumulator: the table of groups. *)

val create_acc : group:int list -> func:Aggregate.func -> acc
(** An empty accumulator for one grouping and aggregate, with [group]
    and [func] as in {!of_relation}. *)

val observe_batch : acc -> Batch.t -> unit
(** Fold the batch's selected rows in, in row order.  Per row: a probe
    on the GROUP BY columns read in place, then O(1) for COUNT (no
    allocation once the row's group exists), and for the other
    aggregates when the row's texp is at least its group's newest
    expiration time; O(log s) amortised otherwise.  Of compare-equal
    keys (0.0 and -0.0) a group carries the one seen last.
    @raise Invalid_argument on a non-numeric SUM operand. *)

val of_acc : acc -> t
(** The accumulated partial, groups in ascending key order. *)

val merge_all : func:Aggregate.func -> t list -> t
(** Merge partials of [func] over disjoint fragments in one pass through
    the same table of groups (probed by key list): groups unite by key,
    slices by expiration time, components add/extremise, and a COUNT
    group condenses back to at most two slices.  The combination order
    is left to right.
    @raise Invalid_argument on non-numeric SUM partials. *)

val merge_counts : group list -> group option
(** One key's COUNT groups from disjoint fragments, merged as
    {!merge_all} [~func:Count] merges them, without its table: [None]
    when none has a slice. *)

val finalizer :
  group:int list ->
  func:Aggregate.func ->
  child_arity:int ->
  ?having:Predicate.t ->
  projection:int list ->
  group ->
  (Tuple.t * Time.t) option * Time.t
(** One group's share of the answer — the one finalisation the executor,
    the standing state and the coordinator share: its output row when
    HAVING keeps it, carrying [min (nu, empties)] (the union-rule
    collapse of the member rows' capped expirations), and its change
    point nu when nu outruns the partition's own expiry, [Inf]
    otherwise.  [projection] and [having]'s columns may mention GROUP BY
    positions and [child_arity + 1] (the aggregate). *)

val distinct_rows : group:int list -> projection:int list -> bool
(** Whether {!finalizer}'s rows for two groups always differ: the
    projection keeps every GROUP BY position. *)

val finalize :
  group:int list ->
  func:Aggregate.func ->
  child_arity:int ->
  ?having:Predicate.t ->
  projection:int list ->
  t ->
  Relation.t * Time.t
(** [(rows, invalidation)]: the grouped query's result under the exact
    strategy, identical to composing [Ops.aggregate Exact] with the
    HAVING selection and the projection: {!finalizer} over every group,
    the change points folded to their minimum. *)

(** {2 Standing COUNT state}

    A grouped COUNT kept current instead of refolded.  Table 1 makes no
    COUNT member neutral, so a group's earliest texp must survive
    deletes: each group keeps the multiset of its members' texps
    (texp -> count, ordered by texp), and is filed under its earliest
    one, so expiring up to [tau] visits only the groups it changes.
    Persistent ({!Group_map} by key), so a forecast replays it without
    disturbing it.  Each change costs O(log groups + log texps) per
    group it touches. *)

type standing

val standing_empty : standing

val standing_change : standing -> Value.t list -> Time.t -> int -> standing
(** [standing_change s key texp n]: [n] more members of the group (fewer
    when negative; the caller removes only members it added). *)

val standing_expire : standing -> Time.t -> standing * Value.t list list
(** Drops every member expiring at or before [tau]; also answers the
    keys of the groups that changed. *)

val standing_next : standing -> Time.t
(** The earliest member texp: the next change ([Inf] when none). *)

val standing_groups : standing -> int
(** O(1). *)

val standing_group : standing -> Value.t list -> group option
(** The group's at most two COUNT slices, as {!Executor.partial} folds
    them. *)

val standing_partial : standing -> t
(** Every group's slices, in ascending key order. *)

val standing_diff : standing -> standing -> t
(** [standing_diff before after]: the groups of [after] whose members
    differ from [before]'s, in ascending key order, as
    {!standing_group} gives them, and [{key; slices = []}] for a group
    [after] no longer holds.  A group counts as unchanged when its
    members record is physically the same in both, as it is in a state
    derived from [before] by changes that never reached the group.  The
    groups sit on a {!Group_map}, whose diff skips the subtrees two
    versions share: O(changes · log groups) for [after] derived from
    [before] by that many changes. *)

(** The GROUP BY value primitives the table hashes and probes with:
    {!Value.hash} and {!Value.equal} with the [Int] case inlined.  Each
    agrees with its [Value] counterpart on every input; exposed so a
    law can pin that. *)
module Key : sig
  val hash : Value.t -> int
  val equal : Value.t -> Value.t -> bool
end
