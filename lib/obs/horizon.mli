(** Forward-looking expiration telemetry: the forecast of the database.

    Every tuple carries its expiration time, so the exact expiration
    load of the next Δ ticks is computable {e today} — no sampling, no
    estimation.  A horizon is that forecast in bucketed form: per table,
    how many live rows expire within the next 1, 2, 4, … ticks
    (log-spaced, Prometheus-histogram shaped, with a [+Inf] bucket
    holding the rows beyond the last finite bound or never expiring).

    This module is pure bucket arithmetic: the storage layer produces
    the counts (via binary-searched cuts over its expiration-ordered
    data, never a full scan), the server and coordinator assemble
    reports here.  Because buckets count disjoint row sets, horizons
    from disjoint shards merge by {e bucket-wise addition} and the merge
    is exact: merged ≡ single-node over the union of the data (a qcheck
    law in the test suite pins this).  Forecasts are exactly
    verifiable — the logical clock is deterministic, so the bucket for
    (now, now+Δ] equals the number of rows a subsequent [ADVANCE TO
    now+Δ] actually drops. *)

val default_bounds : int array
(** Log-spaced tick deltas, ascending, ending in [max_int] ([+Inf]). *)

val default_window : int
(** The Δ (ticks) used for fan-out forecasts and predictive storm
    rules: "what does the next ADVANCE window deliver?" *)

type table = {
  name : string;
  bounds : int array;
      (** ascending tick deltas; the last element is [max_int],
          rendered as [+Inf] *)
  counts : int array;
      (** per-bucket (non-cumulative): [counts.(i)] live rows expire in
          (now + bounds.(i-1), now + bounds.(i)]; the [+Inf] bucket also
          holds never-expiring rows.  Same length as [bounds]. *)
}

val live : table -> int
(** Total live rows — the sum of all buckets. *)

val expiring_within : table -> int -> int
(** [expiring_within tb d] is the cumulative count of live rows whose
    ticks-to-expiry is at most [d] (buckets whose bound ≤ [d]). *)

val merge_tables : table -> table -> table
(** Bucket-wise addition.
    @raise Invalid_argument on mismatched names or bounds. *)

val merge : table list list -> table list
(** Union of per-shard partials: tables matched by name, buckets added,
    result sorted by name.  Additive and exact — see the module header. *)

type report = {
  now : int;  (** the logical clock the forecast is anchored at *)
  window : int;  (** Δ for [fanout_events] and storm rules *)
  fanout_events : int;
      (** subscription events an [ADVANCE] to [now + window] delivers *)
  arrival_rate : float;  (** rows inserted per tick, sliding window *)
  expiration_rate : float;  (** rows expired per tick, sliding window *)
  tables : table list;  (** sorted by table name *)
  shards : (string * int) list;
      (** a cluster's live rows per shard (shard id, live rows), in
          shard order; empty on a node *)
}

val merge_reports : report list -> report
(** Cluster roll-up: clocks agree on [max] (shards advance together;
    a lagging shard under-forecasts conservatively), [window] on [max],
    counts, event forecasts and rates add, and the shard lists
    concatenate.
    @raise Invalid_argument on an empty list. *)

val snapshot : table -> Instrument.Histogram.snapshot
(** The table's buckets as a histogram snapshot for exposition.
    [count] is the live-row total; [sum] is the upper-bound tick-mass
    Σ counts·bound over finite buckets (never-expiring rows contribute
    nothing). *)

val metrics : report -> Registry.metric list
(** The report as self-contained exposition metrics —
    [expirel_horizon_rows{table,le}] plus the fan-out forecast, window
    and churn gauges — renderable with {!Prometheus.render} without a
    registry.  The coordinator's merged-horizon page is exactly this. *)

val render : report -> string
(** Human-readable multi-line text for [SHOW HORIZON] and the CLI, with
    a live-row line per shard when the report has a breakdown. *)

(** Arrival vs expiration velocity over a sliding window of logical
    time.  Feed it {e cumulative} totals (monotone counters) at
    observation points — scrapes, health checks — and it derives
    rows-per-tick rates from the oldest retained sample.  Logical time
    makes this deterministic: the same statement sequence yields the
    same rates. *)
module Churn : sig
  type t

  val create : ?window:int -> unit -> t
  (** [window] is in ticks (default 64): samples older than
      [now - window] are pruned, keeping one as the rate baseline. *)

  val observe : t -> now:int -> arrivals:int -> expirations:int -> unit
  (** Record cumulative totals at logical time [now].  A repeat
      observation at the same tick replaces the previous one. *)

  val rates : t -> float * float
  (** [(arrivals_per_tick, expirations_per_tick)] between the oldest
      retained sample and the newest; [(0., 0.)] until two samples at
      distinct ticks exist. *)
end
