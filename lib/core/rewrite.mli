(** Algebraic rewriting to postpone recomputation (Section 3.1).

    Two goals from the paper: (1) reduce the set
    [{ t | t in R /\ t in S /\ texp_R(t) > texp_S(t) }] that causes
    recomputations — achieved by pushing selections towards the leaves so
    the difference operands shrink — and (2) "pull up non-monotonic
    operators in query plans to reduce the effects of recomputations on
    operators that depend on them" — achieved by distributing selections
    and products over difference so the difference becomes the plan root.

    All rules preserve semantics at every time [tau] (tuple sets {e and}
    expiration times); the property-based tests verify this. *)

type rule

val select_merge : rule
(** [sigma_p(sigma_q(e)) -> sigma_(p /\ q)(e)]. *)

val select_past_project : rule
(** [sigma_p(pi_js(e)) -> pi_js(sigma_p'(e))], renaming the predicate's
    columns through the projection. *)

val select_pushdown_product : rule
(** Splits a conjunctive predicate over a product (or join), sending the
    conjuncts that mention only left (resp. only right) columns to the
    corresponding operand. *)

val select_pushdown_union : rule
(** [sigma_p(R u S) -> sigma_p(R) u sigma_p(S)]. *)

val select_pushdown_intersect : rule

val select_pushdown_diff : rule
(** [sigma_p(R - S) -> sigma_p(R) - sigma_p(S)] — simultaneously a
    pushdown (shrinks the critical set) and a difference pull-up. *)

val diff_pullup_product : rule
(** [(R - S) x T -> (R x T) - (S x T)] (and symmetrically on the right):
    lifts the non-monotonic operator towards the root. *)

val project_merge : rule
(** [pi_js(pi_ks(e)) -> pi_(ks o js)(e)]. *)

val project_pushdown_union : rule
(** [pi_js(R u S) -> pi_js(R) u pi_js(S)] — sound because both the
    union's and the projection's duplicate merges take the maximum
    expiration time (Equations (3)-(4)). *)

val default_rules : rule list

val apply_once : env:Algebra.env -> rule -> Algebra.t -> Algebra.t option
(** Applies the rule at the topmost matching node; [None] when it matches
    nowhere. *)

val rewrite :
  ?max_passes:int ->
  ?rules:rule list ->
  env:Algebra.env ->
  Algebra.t ->
  Algebra.t * (string * int) list
(** Bottom-up fixpoint application; returns the rewritten expression and
    per-rule application counts.  [max_passes] (default 50) bounds the
    iteration. *)
