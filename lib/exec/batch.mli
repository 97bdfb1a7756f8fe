(** Columnar batches: the unit of work of the executor.

    A batch is one chunk of rows as flat column arrays plus a parallel
    expiration-time array and an optional selection vector.  Scans
    produce batches directly from a run's chunks
    ({!Expirel_storage.Texp_run.scan_range}, {!of_slice}), where in a
    table's texp-ordered run the live-at-[tau] cut is one binary search
    and wholly-live / wholly-expired chunks are accepted / skipped
    without touching a row.  Filters
    narrow the selection vector; projections permute column pointers;
    only materialisation ({!to_relation}) — at the plan's root, or
    where a set-semantics operator needs a set — builds tuples again.

    Order contract: each scan batch ascends in its run's order (by
    texp for a table's full scan: that is what makes the cut a binary
    search; by key for an index scan); batches above the scan, including
    {!of_relation} rebatches of a set-semantics operator's answer,
    carry no order guarantee — every operator above the scan only ever
    sees live rows, so nothing above needs one. *)

open Expirel_core
open Expirel_storage

type t = private {
  arity : int;
  cols : Value.t array array;
      (** [arity] columns of equal length, one value per physical row *)
  texps : Time.t array;  (** the rows' expiration times, parallel to [cols] *)
  sel : int array option;
      (** the selected physical row ids, ascending; [None] = every row *)
}
(** Read-only for kernels that loop over the arrays themselves
    ({!Partial_agg.observe_batch}); only this module builds batches. *)

val arity : t -> int

val length : t -> int
(** Selected rows (the batch may hold more, deselected ones). *)

val fold_rows : t -> init:'a -> f:('a -> (int -> Value.t) -> Time.t -> 'a) -> 'a
(** Folds over the selected rows; [f] receives a 1-based attribute
    accessor into the row and the row's expiration time.  How the join
    kernels, the sketch operators and {!to_relation} read rows without
    materialising tuples; the fused aggregate reads the arrays
    directly instead. *)

val of_slice : arity:int -> Texp_run.chunk -> int array option -> t
(** A chunk's rows, zero-copy: all of them ([None]) or the ascending row
    ids given — how scans ({!Texp_run.scan_range}) enter batch
    form. *)

val of_rows : arity:int -> (Tuple.t * Time.t) list -> t option
(** One batch holding exactly these rows ([None] when empty). *)

val of_relation : Relation.t -> t list
(** Rebatch a materialised relation (tuple order) — where a
    set-semantics operator's answer feeds a batch kernel. *)

val filter : ((int -> Value.t) -> bool) -> t -> t option
(** Apply a compiled predicate kernel ({!Predicate.compile}), narrowing
    the selection vector; the columns are shared.  [None] when no row
    passes. *)

val project : int list -> t -> t
(** Permutes / duplicates column pointers (1-based), zero-copy.
    Coinciding output rows are deliberately {e not} merged here: the
    projection rule's max-merge happens at {!to_relation}, with which
    every batch operator commutes. *)

val to_relation : arity:int -> t list -> Relation.t
(** Materialisation: rows become tuples again, coinciding tuples
    max-merge their expiration times (the {!Relation.add} rule the
    naive kernels use). *)

(** Accumulates operator output rows (joins, rebatches) into full
    batches, flushing every {!Texp_run.chunk_rows} rows. *)
module Builder : sig
  type batch = t
  type t

  val create : arity:int -> t

  val add : t -> (int -> Value.t) -> Time.t -> unit
  (** Append one row from a 1-based attribute source. *)

  val to_batches : t -> batch list
  (** Flush and return everything appended, in append order.  The
      builder must not be reused afterwards. *)
end
