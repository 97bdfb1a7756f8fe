(** Materialised views over expiring base relations.

    The paper's programme (Section 1): "materialise and maintain query
    results as far as possible independently of, but in synchrony with
    their base relations" — ideally "by looking only at the expiration
    times of the tuples of the query results and without referring back
    to the base relations". *)

type t = private {
  expr : Algebra.t;
  strategy : Aggregate.strategy;
  computed_at : Time.t;
  contents : Relation.t;  (** as materialised at [computed_at] *)
  texp : Time.t;  (** the expression expiration time [texp(e)] *)
  validity : Interval_set.t;  (** Schrödinger validity [I(e)] *)
}

val materialise :
  ?strategy:Aggregate.strategy -> env:Eval.env -> tau:Time.t -> Algebra.t -> t
(** Computes contents, [texp(e)] and [I(e)] at [tau]. *)

val current : t -> tau:Time.t -> Relation.t
(** [current v ~tau] is the properly expired materialisation
    [exp_tau(contents)], regardless of validity — what a client that
    cannot reach the base data would see. *)

val is_expired : t -> tau:Time.t -> bool
(** Whether [tau >= texp(e)] — the point after which Theorem 2 stops
    guaranteeing that {!current} equals a recomputation. *)

val read : t -> tau:Time.t -> [ `Valid of Relation.t | `Expired of Time.t ]
(** Theorem 2 interface: [`Valid] with the properly expired contents when
    [computed_at <= tau < texp(e)]; [`Expired texp] otherwise. *)

val read_schrodinger :
  t -> tau:Time.t -> policy:Validity.policy ->
  [ `Valid of Relation.t | `Observe of Validity.observation ]
(** Section 3.3 interface: answers from the materialisation when [tau]
    lies in a validity interval, otherwise reports the fallback the
    policy selects (move backward / delay / recompute). *)

val refresh : env:Eval.env -> tau:Time.t -> t -> t
(** Recomputation: rematerialises the same expression at [tau]. *)

val maintenance_times :
  ?strategy:Aggregate.strategy ->
  env:Eval.env -> from:Time.t -> horizon:Time.t -> Algebra.t -> Time.t list
(** The recomputation schedule over [\[from, horizon\[] when the view is
    refreshed exactly each time its materialisation expires: materialise
    at [from]; whenever [texp(e)] is finite and [< horizon], refresh at
    that instant and continue.  Monotonic expressions yield [\[]]
    (Theorem 1: no recomputation, ever). *)
