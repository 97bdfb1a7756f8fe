(** Schrödinger's cat semantics (Sections 3.3–3.4): instead of a single
    expiration time, associate with a materialised expression the {e set
    of time intervals} during which it is valid, so queries arriving
    inside those intervals are answered without recomputation.

    "An (materialised) expression is only required to contain correct
    values when a user queries it." *)

val aggregate_windows :
  tau:Time.t -> Aggregate.func -> Aggregate.partition -> Interval_set.t
(** [aggregate_windows ~tau f p] — the paper's [I_R(t)] for a result
    tuple of this partition materialised at [tau]: all times at which the
    aggregate value equals its value at [tau], or at which the partition
    has expired entirely (the result tuple is then simply absent rather
    than wrong). *)

val expression_validity :
  ?strategy:Aggregate.strategy ->
  env:Eval.env ->
  tau:Time.t ->
  Algebra.t ->
  Interval_set.t
(** [expression_validity ~env ~tau e] is the paper's [I(e)] for a
    materialisation at [tau], computed bottom-up:
    - a monotonic (sub)expression contributes [\[tau, Inf\[]
      (Section 3.4 intro);
    - difference contributes [\[tau, Inf\[] minus the union over critical
      tuples [t] ([t in R /\ t in S /\ texp_R(t) > texp_S(t)]) of
      [\[texp_S(t), texp_R(t)\[] — the per-tuple form described in
      Section 3.3 (exact; see also {!difference_validity_eq12});
    - aggregation contributes the intersection over partitions of the
      per-tuple windows [I_R(t)] (Section 3.4.1);
    - validity intersects over subexpressions. *)

val difference_validity_eq12 :
  env:Eval.env -> tau:Time.t -> Algebra.t -> Algebra.t -> Interval_set.t
(** The coarser single-window form of Equation (12):
    [\[tau, Inf\[ - \[min texp_S(t), max texp_R(t)\[] over critical
    tuples.  (As printed, Equation (12)'s upper bound reads
    [max texp_S(t)]; Section 3.3's worked example — validity resumes
    "when it later expires in R" — fixes it to [texp_R], which we
    follow.)  Always a subset-or-equal coarsening of the exact form
    restricted to the same expression. *)

type observation =
  | Answer_now  (** the materialisation is valid at the query time *)
  | Move_backward of Time.t
      (** answer as of this earlier time (slightly outdated result) *)
  | Delay_until of Time.t  (** delay the query to this later valid time *)
  | Recompute  (** no valid time helps; recompute the expression *)

type policy =
  | Prefer_backward
  | Prefer_delay
  | Recompute_only

val observe : policy:policy -> validity:Interval_set.t -> Time.t -> observation
(** [observe ~policy ~validity tau] decides how to answer a query issued
    at [tau] against a materialisation valid during [validity]
    (Section 3.3's options: answer readily, move the query backward or
    forward in time, or recompute). *)

val latest_valid_before : Time.t -> Interval_set.t -> Time.t option
(** Latest covered time strictly before [tau], if any ([None] also when
    the preceding coverage is unbounded-from-below, which cannot occur
    for validity sets built by this module). *)
