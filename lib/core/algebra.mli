(** The expiration-time-aware relational algebra (Sections 2.3–2.6).

    Primitive operators: selection, projection, Cartesian product, union
    (the SPCU algebra of Equations (1)–(4)), plus the non-monotonic
    aggregation (Equation (8)) and difference (Equation (10)).  Join
    (Equation (5)) and intersection (Equation (6)) are derived but carried
    in the AST so plans can be printed and rewritten at their natural
    granularity; the evaluator follows their defining rewrites.

    Attribute positions are 1-based, as in the paper. *)

type t =
  | Base of string  (** a named base relation *)
  | Select of Predicate.t * t  (** [sigma^exp_p], Equation (1) *)
  | Project of int list * t  (** [pi^exp_(j1..jn)], Equation (3) *)
  | Product of t * t  (** [x^exp], Equation (2) *)
  | Union of t * t  (** [u^exp], Equation (4) *)
  | Join of Predicate.t * t * t  (** derived, Equation (5) *)
  | Intersect of t * t  (** derived, Equation (6) *)
  | Diff of t * t  (** [-^exp], Equation (10) *)
  | Aggregate of int list * Aggregate.func * t
      (** [agg^exp_(j1..jn, f)], Equation (8): result tuples are the input
          tuples extended with the aggregate value, arity [alpha(R) + 1] *)

val base : string -> t
val select : Predicate.t -> t -> t
val project : int list -> t -> t
val product : t -> t -> t
val union : t -> t -> t
val join : Predicate.t -> t -> t -> t
val intersect : t -> t -> t
val diff : t -> t -> t
val aggregate : int list -> Aggregate.func -> t -> t

val operator_name : t -> string
(** Canonical lower-case name of the root operator ([base], [select],
    [project], [product], [union], [join], [intersect], [difference],
    [aggregate]) — the vocabulary shared by {!Explain.expr_tree} plan
    lines and per-operator evaluation metrics. *)

type env = string -> int option
(** Arity environment for base relations. *)

val arity : env:env -> t -> int
(** Arity of the expression's result, with full well-formedness checking:
    predicate columns in range (for [Join], predicate columns range over
    the combined arity), projection/grouping positions in range, union
    compatibility ([alpha(R) = alpha(S)], also required of [Intersect] and
    [Diff]).
    @raise Errors.Arity_mismatch on any violation
    @raise Errors.Unknown_relation on an unbound base name *)

val well_formed : env:env -> t -> (int, string) result
(** Non-raising variant of {!arity}. *)

val base_names : t -> string list
(** Distinct base relations mentioned, in first-occurrence order. *)

val map_preds : (Predicate.t -> Predicate.t) -> t -> t
(** Every selection and join predicate rewritten by [f]. *)

val size : t -> int
(** Number of operator nodes (base relations count 1). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Compact mathematical rendering, e.g.
    [pi_(2)(Pol) -exp pi_(1)(El)]. *)

val to_string : t -> string
