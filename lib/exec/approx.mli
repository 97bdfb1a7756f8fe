(** Approximate-aggregate specifications and their sketch kernels.

    A [spec] is the physical-layer description of an approximate select
    item ([APPROX_COUNT(eps)] / [SAMPLE(k)]): the lowering layer
    attaches one to a compiled query, the planner wraps the physical
    tree in the matching sketch operator, and the executor calls
    {!build} / {!result} to fold the child's rows into a
    bounded-memory sketch and render the sketch's answer as ordinary
    result rows with honest expiration times. *)

open Expirel_core

type spec =
  | Count of { epsilon : float }  (** [APPROX_COUNT(epsilon)] *)
  | Sample of { k : int }  (** [SAMPLE(k)] *)

val name : spec -> string
(** ["approx_count(0.05)"] / ["sample(10)"] — matches
    {!Expirel_sketch.Any.name} for the sketch {!build} produces, so
    observability gauges and plan lines share one vocabulary. *)

val columns : spec -> child:string list -> string list
(** Result column labels: [["approx_count"; "within"]] for a count,
    the child's own labels for a sample. *)

val build :
  spec ->
  arity:int ->
  (((int -> Value.t) -> Time.t -> unit) -> unit) ->
  Expirel_sketch.Any.t
(** [build spec ~arity iter] folds every row [iter] yields — a 1-based
    attribute accessor and the row's expiration time — into a fresh
    sketch of the spec's kind.  The rows must be a set: a row yielded
    twice is counted twice. *)

val result :
  tau:Time.t ->
  arity:int ->
  child_texp:Time.t ->
  Expirel_sketch.Any.t ->
  Eval.result
(** Renders the sketch's answer at [tau] as a result relation.  Rows
    keep their tuple-level texps; the expression-level [texp(e)] is
    capped by both the child's [texp(e)] and the sketch's own horizon —
    the earliest time the approximate answer can change. *)
