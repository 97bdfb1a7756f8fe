(** Selection predicates (Equation (1)).

    The paper's selection predicate [p] is of the form [j = k] (correlated:
    two attribute positions) or [j = a] (uncorrelated: position vs
    constant), closed under [/\ ] and [\/].  We additionally provide the
    other comparison operators and negation, which the formal development
    accommodates unchanged.  Attribute positions are 1-based. *)

type operand =
  | Col of int  (** attribute position, 1-based *)
  | Const of Value.t

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t

val eq_cols : int -> int -> t
(** [eq_cols j k] is the paper's correlated predicate [j = k]. *)

val eq_const : int -> Value.t -> t
(** [eq_const j a] is the paper's uncorrelated predicate [j = a]. *)

val conj : t list -> t
val disj : t list -> t

val conjuncts : t -> t list
(** Top-level conjuncts of a predicate ([True] contributes none) —
    [conj (conjuncts p)] is logically equivalent to [p].  The shared
    decomposition the rewriter, the access-path selector and the
    physical planner all work from. *)

type equi_split = {
  pairs : (int * int) list;
      (** cross-side equality conjuncts [(l, r)]: column [l] of the left
          operand equals column [r] of the {e right} operand, both
          1-based in their own relation *)
  residual : t;
      (** the remaining conjuncts, still over the combined columns *)
}

val equi_split : left_arity:int -> t -> equi_split option
(** Decomposes a join predicate over a product of a [left_arity]-column
    relation with another relation into equi-join pairs plus a residual;
    [None] when no cross-side equality conjunct exists (the predicate
    offers a hash or merge join nothing to key on). *)

val eval : t -> Tuple.t -> bool
(** Comparisons touching [Null] or incomparable types are false (and their
    negation true of the comparison, i.e. [Not] is logical negation of the
    three-valued-collapsed boolean).
    @raise Invalid_argument when a column position exceeds the arity. *)

val compile : t -> (int -> Value.t) -> bool
(** [compile p] walks the predicate tree once and returns a kernel that
    evaluates it against a 1-based column accessor — the batch
    executor's per-row test, which never materialises a tuple.  For
    every tuple [t], [compile p (Tuple.attr t) = eval p t]. *)

val max_col : t -> int
(** Largest attribute position mentioned; 0 when none. *)

val shift : int -> t -> t
(** [shift n p] adds [n] to every column position — used to move a
    predicate across a product boundary ([p'] in Equation (5)). *)

val columns_within : int -> t -> bool
(** [columns_within n p] holds when every column mentioned is [<= n]. *)

val columns_between : int -> int -> t -> bool
(** [columns_between lo hi p] holds when every column [c] mentioned
    satisfies [lo <= c && c <= hi]. *)

val rename : (int -> int option) -> t -> t option
(** [rename f p] rewrites every column [c] to [f c]; [None] when some
    column has no image (the predicate cannot be expressed after a
    projection). *)

val map_consts : (Value.t -> Value.t) -> t -> t
(** [map_consts f p] rewrites every constant [c] to [f c] — how a
    cached plan takes another request's literals. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
