(** An expirel node on the network: the paper's loosely-coupled
    setting (Section 1) as an actual networked database.  The
    connection machinery — accept, framing, the traced statement path,
    held answers — is {!Loop}'s, shared with a coordinator; this is the
    node behind it.

    One interpreter sits under an {!Expirel_storage.Rwlock}: read-only
    statements run concurrently, writes and clock moves serialise, and
    a request that cannot take the lock within the per-request timeout
    gets a [Timeout] error.  A request polls the lock's [try_] forms,
    so a write gets none of its writer preference: overlapping reads
    can hold it off until it times out.
    [SUBSCRIBE] starts a watch in the interpreter; the node keeps which
    connection owns each watch name, that connection pushes its events
    — at their exact logical times, before the write or advance that
    caused them is acknowledged — and its watches end when it closes.
    The node also answers a coordinator's shard and rebalance requests.

    With [data_dir] set, every mutation is write-ahead logged in a
    {!Expirel_storage.Durable} store, [CHECKPOINT] compacts it, and
    [REPLICATE] handshakes turn the connection into a log stream.  With
    [read_only] set, mutating statements are refused: the replica mode,
    where {!apply_records} and {!install_snapshot} are the only write
    paths. *)

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

val partition_summary : t -> Wire.partition_texp
(** The live-row count and live min/max texp over every table at the
    node's clock — the summary a shard piggybacks on its replies for the
    coordinator's pruning.  Read from the ends of each table's
    texp-ordered run, O(log n) per table, and kept until the clock, the
    catalog or a table's generation moves.  Callers that run
    concurrently with a serving node must hold {!lock}. *)

val apply_records : t -> Wal.record list -> (unit, string) result
(** The replica side of the stream: a shipped [Repl_records] batch
    under the write lock through {!Interp.apply_records}, which
    delivers watch events at their exact logical times and ends the
    watches a shipped [DROP TABLE] removes.  [Error] without a store. *)

val install_snapshot : t -> position:int -> Wal.record list -> (unit, string) result
(** Replaces the whole state with a shipped [Repl_snapshot] under the
    write lock through {!Interp.install_snapshot} — the replica side of
    a bootstrap.  [Error] without a store. *)

val wait : t -> unit
(** Blocks until the server stops (joins the acceptor). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, wake idle workers, let in-flight
    requests drain, join every thread.  Idempotent. *)
