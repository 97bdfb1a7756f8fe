(** Per-operator execution profiles: the stats sink behind
    [EXPLAIN ANALYZE].

    A profile is a mutable tree mirroring a {!Plan.t} node for node
    (children in {!Plan.children} order).  {!of_plan} seeds each node
    with the planner's cardinality estimate; {!Executor.run}'s
    [?profile] argument fills in what actually happened — output rows,
    tuples the exp_tau liveness filter dropped (the expiration churn
    the paper reasons about per operator), index nodes visited, hash
    build sizes and per-operator wall time.  When no profile is passed
    the executor counts nothing and allocates nothing for it. *)

open Expirel_storage

type node = {
  op : string;  (** {!Plan.operator_name} of the mirrored plan node *)
  est_rows : int;  (** {!Planner.estimate_rows} at profile creation *)
  mutable rows : int;  (** actual output cardinality *)
  mutable expired_dropped : int;
      (** physical rows the scan's [tau] filter discarded (scans only) *)
  mutable index_visited : int;
      (** index nodes touched (index scans only) *)
  mutable build_rows : int;  (** hash-table build input (hash joins) *)
  mutable sketch_bytes : int;
      (** sketch memory footprint (sketch operators only) *)
  mutable batches : int;
      (** columnar batches this operator produced (0 for an operator
          that answered with a set: intersection, difference,
          aggregates, sketches, a bare scan's cached snapshot) *)
  mutable cut_skipped : int;
      (** expired rows a batch scan skipped {e without} per-row
          comparisons: wholly-expired chunks dropped via their max texp
          plus binary-search cut prefixes — the work the
          expiration-ordered layout saves over a per-tuple [tau]
          filter.  Also counted into [expired_dropped]. *)
  mutable time_us : int;
      (** inclusive wall time, µs — children included; subtract their
          [time_us] for self time *)
  children : node list;
}

val of_plan : db:Database.t -> Plan.t -> node
(** A zeroed profile tree for the plan, with estimates filled in. *)

val total_expired_dropped : node -> int
(** Sum of [expired_dropped] over the whole tree. *)

val annotate : node -> string
(** One node's stats, e.g.
    ["(est=100 rows=97 dropped=3 time=0.214ms)"]. *)

val render : Plan.t -> node -> string
(** The annotated plan tree: each {!Plan.describe} line followed by
    {!annotate} — the body of [EXPLAIN ANALYZE] output.
    @raise Invalid_argument when the trees' shapes disagree *)
