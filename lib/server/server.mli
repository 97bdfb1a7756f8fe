(** The concurrent expirel TCP server: the paper's loosely-coupled
    setting (Section 1) realised as an actual networked database rather
    than the simulation in [paper/dist/].

    One acceptor thread hands each connection to a dedicated worker
    thread, up to a configurable cap (excess connections are refused
    with an [Overloaded] error).  The shared database is guarded by a
    writer-preferring {!Expirel_storage.Rwlock}: queries and other
    read-only statements run concurrently, while [INSERT] / [DELETE] /
    [ADVANCE] and friends serialise.  Requests that cannot acquire the
    lock within the per-request timeout are answered with a [Timeout]
    error instead of stalling the connection.

    [SUBSCRIBE] starts a watch in the shared interpreter
    ({!Interp.subscribe}), which owns every standing query; the server
    keeps only which connection owns which watch name and the handler
    that pushes its events.  Whenever any connection advances the
    logical clock, the change events — [Row_expired] / [Row_appeared] /
    [Refreshed] at the {e exact} logical times — are pushed to the
    subscribing connections before the advance is acknowledged, so a
    subscriber can never observe an acknowledged clock ahead of its own
    event stream.  A connection's watches end when it closes.

    Each connection also holds what it last sent for up to
    {!Wire.held_capacity} (64) texts, in one LRU: the answers to
    [Statement] requests for plain queries, so a re-read naming its
    copy gets only the rows added, re-timed or removed since
    ({!Wire.Held_rows}), and a coordinator's kept [Want_agg] reads of a
    grouped COUNT, so a re-read naming its version gets only the groups
    changed since.  They are freed when the connection closes, and
    [METRICS] shows them as [expirel_held_answers] and
    [expirel_held_replies_total].

    {!stop} is graceful: the listener closes first, in-flight requests
    run to completion and get their responses, then workers are joined.

    With [data_dir] set, the server runs over a {!Expirel_storage.Durable}
    store: every mutation is write-ahead logged, [CHECKPOINT] compacts
    the snapshot, and the server answers [REPLICATE] handshakes by
    streaming its log (snapshot-bootstrapping followers that fell behind
    the retained tail).  With [read_only] set it refuses mutating
    statements — the replica mode, where {!apply_records} and
    {!install_snapshot} are the only write paths. *)

open Expirel_storage
open Expirel_sqlx

type config = {
  host : string;  (** address to bind, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port; see {!port} *)
  max_connections : int;
  request_timeout : float;
      (** seconds a request may wait for the database lock before being
          refused with a [Timeout] error *)
  policy : Database.policy;
  data_dir : string option;
      (** directory of the {!Expirel_storage.Durable} store; [None]
          runs purely in memory (and cannot serve replication) *)
  read_only : bool;
      (** replica mode: mutating statements are refused with
          [Exec_error]; reads, [SUBSCRIBE], [VACUUM] and [CHECKPOINT]
          still work *)
  node_name : string;
      (** how this node identifies itself in exported traces — give
          primary and replicas distinct names so a merged Chrome trace
          shows one lane per node *)
  health_rules : Expirel_obs.Health.rule list;
      (** what the [HEALTH] request evaluates; see
          {!default_health_rules} *)
}

val default_config : config
(** loopback, ephemeral port, 64 connections, 5 s timeout, eager
    removal, heap index, in-memory, read-write, node name ["expirel"],
    {!default_health_rules}. *)

val default_health_rules : Expirel_obs.Health.rule list
(** Replication lag (records), expiration-index backlog, slow-request
    rate (fraction of requests over 50 ms) and plan-cache hit ratio —
    each with a degraded and a critical threshold.  Rules whose metric
    has no samples yet (no replication, cold cache) are skipped, never
    fired. *)

type t

val create : ?config:config -> unit -> t

val start : t -> unit
(** Binds, listens and spawns the acceptor.
    @raise Invalid_argument when already started
    @raise Unix.Unix_error when the address cannot be bound *)

val port : t -> int
(** The actually bound port (useful with [port = 0]).
    @raise Invalid_argument before {!start} *)

val interp : t -> Interp.t
(** The shared interpreter session — for in-process embedding and
    tests.  Callers that touch it concurrently with a running server
    must hold {!lock}. *)

val lock : t -> Rwlock.t
val metrics : t -> Metrics.t

val collect_metrics : t -> Expirel_obs.Registry.metric list
(** The server's registry, collected under the read lock (its polled
    gauges walk live table and view state): the samples [METRICS]
    renders and [HEALTH] evaluates, for in-process readers — read one
    with {!Expirel_obs.Registry.values}. *)

val trace_store : t -> Expirel_obs.Trace_store.t
(** The recent-request trace ring the [TRACE n] request serves —
    replicas also record their replication handshakes here, so a
    cross-node export can read every node's half of a trace. *)

val store : t -> Durable.t option
(** The durable store, when [data_dir] was set. *)

val shard_identity : t -> Wire.shard_identity option
(** The shard map and shard id a coordinator installed via
    [Shard_install] — [None] until a coordinator claims this node.  A
    node holding an identity serves the rebalance requests
    ([Extract_moving] / [Purge_moved]) that route by it. *)

val partition_summary : t -> Wire.partition_texp
(** The live-row count and live min/max texp over every table at the
    node's clock — the summary a shard piggybacks on its replies for the
    coordinator's pruning.  Read from the ends of each table's
    texp-ordered run, O(log n) per table.  Callers that run concurrently
    with a serving node must hold {!lock}. *)

val apply_records : t -> Wal.record list -> (unit, string) result
(** Applies a shipped [Repl_records] batch under the write lock through
    {!Interp.apply_records}: watch events are delivered at their exact
    logical times before each [Advance] lands, and a shipped [DROP
    TABLE] ends the watches reading the table — the replica side of the
    stream.  [Error] without a store. *)

val install_snapshot : t -> position:int -> Wal.record list -> (unit, string) result
(** Replaces the whole state with a shipped [Repl_snapshot] under the
    write lock through {!Interp.install_snapshot} — the replica side of
    a bootstrap.  [Error] without a store. *)

val wait : t -> unit
(** Blocks until the server stops (joins the acceptor). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, wake idle workers, let in-flight
    requests drain, join every thread.  Idempotent. *)
