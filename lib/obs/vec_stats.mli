(** Process-global counters for the executor's batches.

    The executor calls {!record} once per query (coarse-grained: one
    mutex acquisition per execution, never per batch or per row); the
    server exposes the totals as Prometheus counters.  [cut_skipped] is
    the cut's saving — expired rows skipped by chunk-level texp pruning
    and binary-search cuts without a single per-row comparison. *)

type snapshot = {
  s_batches : int;  (** columnar batches consumed (as [s_rows]) *)
  s_rows : int;
      (** batch rows consumed: materialised at the root or for a
          set-semantics operator, or folded into a partial or sketch *)
  s_cut_skipped : int;
      (** expired rows skipped wholesale (chunk pruning + cut prefixes) *)
  s_rebatches : int;
      (** set-semantics operator answers (intersection, difference,
          aggregates, sketches) re-entering batch form to feed a batch
          kernel *)
}

val record : snapshot -> unit
(** Adds one query's counts to the totals. *)

val snapshot : unit -> snapshot
