(** Aggregation over expiring relations (Section 2.6.1).

    Provides the family [F] of aggregate functions ([min_i], [max_i],
    [sum_i], [count], [avg_i]), the stable partitioning function
    [phi^exp] (Equation (7)), and the three strategies for assigning
    expiration times to aggregation result tuples:

    - {!strategy.Conservative}: Equation (8) — the minimum expiration time
      of the partition;
    - {!strategy.Neutral}: Table 1 / Definition 2 — ignore time-sliced
      neutral subsets and take the minimum over the contributing set
      [C_f_P] (maximum of the partition when [C_f_P] is empty);
    - {!strategy.Exact}: Equation (9) — the change-point function [nu],
      the first time the aggregate value actually differs from its value
      at materialisation time.

    For every partition, [Conservative <= Neutral <= Exact] holds
    pointwise, and all three coincide for [count] ("the new definition
    ... improves on the expiration times of all aggregates except
    count"). *)

type func =
  | Count  (** [count]: number of tuples in the partition *)
  | Sum of int  (** [sum_i], 1-based attribute *)
  | Min of int  (** [min_i] *)
  | Max of int  (** [max_i] *)
  | Avg of int  (** [avg_i] *)

type strategy =
  | Conservative
  | Neutral
  | Exact
  | Within of float
      (** the paper's future-work direction "maintaining, e.g., aggregate
          values with certain error bounds": result tuples expire only
          when the value drifts more than the given absolute tolerance
          from the materialised value, extending lifetimes further at the
          price of bounded inaccuracy.  [Within 0.] coincides with
          [Exact] on numeric values. *)

val func_attr : func -> int option
(** The attribute the function aggregates; [None] for [Count]. *)

val func_arity_ok : arity:int -> func -> bool

type partition = (Tuple.t * Time.t) list
(** The members of one [phi^exp] partition with their expiration times. *)

val apply : func -> partition -> Value.t
(** Aggregate value of a partition.  [Null] attribute values do not
    contribute (Section 2.4's rule on non-originating values); [Count]
    counts all tuples.  [Avg] yields a [Float].
    @raise Invalid_argument on an empty partition. *)

val partitions : group:int list -> Relation.t -> (Tuple.t * partition) list
(** [partitions ~group r] groups the tuples of [r] by equality under the
    projection on [group] (1-based) — the stable partitioning [phi^exp] of
    Equation (7).  Keys are the projected tuples; ordering is
    deterministic. *)

val partition_of : group:int list -> Relation.t -> Tuple.t -> partition
(** [partition_of ~group r t] is the paper's [phi^exp(R, t)]: all live
    tuples of [r] agreeing with [t] on the [group] attributes. *)

val chi : Time.t -> func -> partition -> bool
(** [chi tau f p]: does [f] applied to [exp_tau p] and [exp_(tau+1) p]
    yield different results (an emptying partition counts as a change)? *)

val nu : tau:Time.t -> func -> partition -> Time.t
(** [nu ~tau f p] — Equation (9)'s change point: the least [tau' >= tau]
    at which the value of [f] on [exp_tau' p] differs from its value on
    [exp_tau p] (the partition becoming empty counts as a difference).
    [Inf] when the value never changes (all remaining members immortal). *)

val nu_within : tolerance:float -> tau:Time.t -> func -> partition -> Time.t
(** [nu_within ~tolerance ~tau f p] — the approximate change point: the
    least [tau' >= tau] at which the value of [f] on [exp_tau' p] drifts
    more than [tolerance] (absolutely) from its value on [exp_tau p], or
    the partition empties.  Non-numeric values fall back to exact
    inequality.  [nu ~tau f p <= nu_within ~tolerance ~tau f p] for every
    [tolerance >= 0], with equality at 0 on numeric values.
    @raise Invalid_argument on a negative tolerance *)

val empties_at : partition -> Time.t
(** The time at which the whole partition has expired:
    [max { texp(t) | t in P }] (Section 2.6.1). [Inf] when some member
    never expires or the partition is empty. *)

val result_texp : strategy -> tau:Time.t -> func -> partition -> Time.t
(** Expiration time assigned to the result tuples of one partition under
    the given strategy.  Members already expired at [tau] are ignored.
    @raise Invalid_argument when no member is live at [tau]. *)

val neutral_slices :
  tau:Time.t -> func -> partition -> (Time.t * partition) list * partition
(** [neutral_slices ~tau f p] splits the live members into the maximal
    prefix of time-sliced neutral subsets (in expiration order, each
    neutral with respect to what remains, per Table 1) and the
    contributing set [C_f_P] of Definition 2.  Returns
    [(neutral_slices, contributing_set)]. *)

val timeline : tau:Time.t -> func -> partition -> (Time.t * Value.t option) list
(** [timeline ~tau f p] is the step function of the aggregate value over
    time: a list of [(start, value)] segments, each extending to the next
    segment's start (the last to infinity); [None] means the partition is
    empty.  The first segment starts at [tau].  Used by the Schrödinger
    semantics (Section 3.4.1). *)

val pp_func : Format.formatter -> func -> unit
val func_to_string : func -> string
