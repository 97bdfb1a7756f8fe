(** Cost estimation for materialised plans (Section 3.1: "In a DBMS,
    the cost estimation mechanisms can be made use of to estimate the
    impact of a rewrite-rule application").

    The model charges each operator its processed cardinality on a
    sample evaluation, counts the recomputations the plan needs over a
    horizon (via its expression expiration times), and combines them:
    a plan recomputed k times costs [(k + 1)] evaluations.  Rewrites
    that postpone recomputation can therefore lose when they inflate
    intermediate results — the trade-off {!choose} arbitrates. *)

type estimate = {
  eval_cost : float;
      (** abstract work units for one evaluation: the sum over operator
          nodes of the cardinality they process *)
  recomputations : int;
      (** how many times the materialisation must be recomputed in
          [\[tau, horizon\[] *)
  total : float;  (** [eval_cost *. float (recomputations + 1)] *)
}

val estimate :
  env:Eval.env -> tau:Time.t -> horizon:Time.t -> Algebra.t -> estimate

val choose :
  env:Eval.env ->
  tau:Time.t ->
  horizon:Time.t ->
  Algebra.t list ->
  Algebra.t * estimate
(** The candidate with the least {!estimate.total} (ties: first).
    @raise Invalid_argument on an empty candidate list *)
