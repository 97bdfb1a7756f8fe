(** Interval-carrying materialisations: the full Schrödinger semantics
    of Section 3.4.

    Instead of expiring each result tuple at a single time, the view
    stores for every potential result tuple the {e set of intervals}
    [I_R(t)] during which it belongs to the result — including windows
    where a tuple {e reappears} (a critical difference tuple after its
    [S] copy expires, Section 3.4.2) or where an aggregate value returns
    to its materialised value (Section 3.4.1).

    Because the base relations change only by expiration, the whole
    future of the result is known at materialisation time; reading the
    view at any later time reproduces a fresh evaluation exactly, with
    {e no} recomputation and {e no} contact with the base data, for
    monotonic expressions, difference, and aggregation alike.  This
    generalises Theorem 3 from difference to every operator of the
    paper; the price is storage, bounded for aggregation by the number
    of aggregate-value changes, which Section 3.4.1 bounds by [|R|]. *)

type t

val materialise : env:Eval.env -> tau:Time.t -> Algebra.t -> t
(** Supports the full algebra.  For expressions whose root is a
    difference or an aggregation, the interval machinery of Sections
    3.4.1-3.4.2 is applied at the root over materialised children; any
    non-monotonic operators {e below} the root must not invalidate
    before the horizon of interest — compose views instead of nesting
    when that matters.  Aggregation uses the {!Aggregate.Exact}
    tuple-expiration semantics.
    @raise Errors.Unknown_relation / {!Errors.Arity_mismatch} like
    {!Eval.run} *)

val computed_at : t -> Time.t

val read : t -> tau:Time.t -> Relation.t
(** [read v ~tau] is the result relation at [tau], for any
    [tau >= computed_at v] — equal to a fresh evaluation (tuples and
    expiration times) when the root is monotonic, a difference over
    monotonic children, or an aggregation over monotonic children.
    @raise Invalid_argument when [tau < computed_at v] *)

val entries : t -> int
(** Stored [(tuple, interval)] entries — the storage cost of knowing the
    future.  For an aggregation this is at most the number of
    aggregate-value changes, i.e. at most [|R|] per Section 3.4.1. *)
