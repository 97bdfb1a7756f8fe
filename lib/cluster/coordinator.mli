(** The cluster coordinator: hash-partitioned shards behind a versioned
    shard map, with expiration-aware scatter-gather reads.

    Every table is partitioned by its first column: a row lives on
    [Wire.shard_owner map key].  Writes route to the owning shard.  A
    query is lowered and planned once per shape, through the
    coordinator's catalog cache, into a plan whose leaves are exchanges
    ({!Expirel_exec.Planner.distribute}), and the one executor answers
    it ({!Expirel_exec.Executor.run}): each exchange is a fan-out that
    asks only the shards that can hold matching live rows, all at
    once (the caller's thread posts to each, then collects the replies
    as they arrive), and the shards' answers merge under the paper's
    union rule — per duplicate tuple the max [texp], for the whole
    result the min of the partial [texp(e)]s (exact, because hash
    partitions are disjoint).

    {2 Key routing}

    An exchange contacts only the owners of the first-column keys its
    statement pins ({!Expirel_exec.Planner.distribute}).  A key routes
    only when every value {!Expirel_core.Value.cmp} equates with it
    shares its owner: [Int]s within [±2^53], [Float]s that are
    fractional or integral below [2^53] in magnitude, strings,
    booleans.  Other keys (large [Int]s and integral [Float]s, NaN)
    broadcast.  Statements route by the current map only: a rebalance
    runs alone (see {!add_shard}), so no statement sees a half-moved
    partition.  A read whose candidates are all provably empty
    contacts no shard and answers empty, with the columns the lowering
    named.

    {2 Pruning invariant}

    The coordinator caches each shard's {!Wire.partition_texp} summary,
    refreshed by {e every} shard reply (query, ack, heartbeat pong).  A
    shard is skipped from a fan-out at evaluation time [tau] when its
    cached summary proves the partition empty:

    {v live_rows = 0  \/  max_texp <= tau v}

    This is sound because all writes flow through the coordinator and
    each write's ack refreshes the owner's summary — between refreshes
    a partition only shrinks (expiration), so emptiness once proven
    cannot be revoked except by an insert, which un-prunes the shard in
    the same round trip.  An [Err] reply or a failed contact clears the
    summary to {e unknown}, and unknown is never pruned.  A rebalance
    grows partitions without a refresh, so pruning pauses while rows
    move. *)

open Expirel_server

type endpoint = Expirel_repl.Member.endpoint = {
  host : string;
  port : int;
}

type t

val create :
  ?node_name:string ->
  ?health_rules:Expirel_obs.Health.rule list ->
  ?heartbeat_interval:float ->
  shards:endpoint list ->
  unit ->
  t
(** Routes by a fresh map (version 1) of the given nodes as shards
    0..n-1, which no node is told of, and primes the clock mirror, the
    partition summaries and each shard's recorded boot id with one
    heartbeat round: one message per shard.  [heartbeat_interval] (default
    0.25 s) paces the background heartbeat thread; [0.] disables it
    (tests then drive {!heartbeat_now} deterministically).
    [health_rules] defaults to {!default_health_rules}.  It opens no
    listener; {!listen} does.
    @raise Invalid_argument on an empty shard list *)

val close : t -> unit
(** Stops listening, stops the heartbeat thread and closes every shard
    connection. *)

val exec :
  ?prune:bool -> ?trace:Expirel_obs.Trace.t -> t -> string ->
  Wire.response
(** One sqlx statement against the cluster.

    - A query runs as its distributed plan: a shard-local one
      (a selection/projection chain over one table, a UNION of
      shard-local operands, an EXCEPT/INTERSECT whose operands keep
      the first column at the same position, a join whose condition
      equates both first columns) is one exchange of rows, merged
      under the union rule and presented by
      {!Expirel_sqlx.Interp.order_and_limit}, as on one node: each
      shard's first [n] rows under ORDER BY and LIMIT hold every row
      of the global first [n] that lives there.  [~prune:false] turns
      key routing and pruning off and forces a full broadcast —
      results are identical, that is the routing and pruning soundness
      contract.
    - A grouped aggregate (GROUP BY, HAVING, COUNT/SUM/MIN/MAX/AVG over
      one table) is the fused aggregate over an exchange of per-shard
      expiration-slice partials ({!Expirel_exec.Partial_agg}): rows
      {e and} texps identical to a single node holding all rows.  AVG
      travels as SUM + COUNT, never pre-averaged.  A repeated
      [GROUP BY … COUNT] over every shard (no [AT], no pinned key) is
      kept here: each shard's condensed groups, as it last shipped
      them, with each shard asked only for the groups changed (written,
      or crossed by their nu) since the version it last shipped on this
      coordinator's connection ({!Expirel_server.Wire.Want_agg}).  A
      read that records no reply drops every contacted shard's copy to
      version 0, so its next reply is whole.  Each group a reply
      touched is merged again from the shards' copies, and only those
      groups are re-finalised; no summed copy is kept.
      [~prune:false], a move in flight, a shard-map change and any DDL
      keep or fall back to the stateless merge.
    - [APPROX_COUNT]/[SAMPLE] over a shard-local source that keeps the
      key merge per-shard sketches and read the merged one at the
      query's tau.
    - Everything else (other joins, EXCEPT/INTERSECT over projections
      that drop the key, aggregates over joins) is the ordinary plan
      over whole-table exchanges (one contact per shard per table),
      computed here — exact by the union rule over disjoint
      partitions, at the cost of shipping each table once.
    - [INSERT] routes to the key's owner shard.
    - [DELETE … WHERE] that pins keys routes to their owners; any
      other [DELETE], DDL,
      [ADVANCE]/[TICK] and [VACUUM] broadcast to all shards.  A
      [DELETE] or [VACUUM] ack reports the sum of the shards' counts.
      [EXPLAIN]/[EXPLAIN ANALYZE] print the coordinator's plan under
      [--- coordinator ---], each exchange line naming the shards it
      contacts after pruning and the text it ships (under ANALYZE, from
      a run of the query, with the fan-out's time and the bytes the
      traffic counters grew by), then broadcast and concatenate the
      per-shard reports.  A broadcast reaches every reachable target even when
      some fail; it then answers [Err] naming each failed shard, and
      the others have applied the statement (an [ADVANCE]/[TICK] moved
      their clocks, and the coordinator's clock mirror follows them on
      the next heartbeat).
    - Only per-node features — views, triggers, constraints,
      [CHECKPOINT] — are refused ([Err]).
    - [SHARDS] answers a line per shard ([shard N: reachable, K live
      row(s), texp in [a, b]]); [ADD SHARD HOST:PORT] and [REMOVE
      SHARD ID] run {!add_shard} and {!remove_shard}.
    - A shard that dies or answers garbage mid-gather surfaces as one
      [Err] with code [Shard_failed] naming the shard.
    - An [AT] before the cluster clock is refused on every route with
      the single node's error ({!Expirel_sqlx.Interp.at_tau}).

    With [trace], spans record there and the context ships to every
    contacted shard ([scatter] with [rpc:shard-<id>] children per
    exchange, a kept COUNT's [kept] around its copies' merge, then the
    executor's [merge] around the union-rule merge or aggregate
    finalisation, with its [op:] spans inside); without, the request loop's wrapper
    ({!Expirel_server.Loop.traced}) opens a trace, observes it into
    {!metrics} and finishes it into {!trace_store}. *)

val listen : ?host:string -> ?port:int -> t -> int
(** Serves the coordinator through {!Expirel_server.Loop} on
    [host:port] (default loopback, [0] ephemeral) and answers the bound
    port: statements run as {!exec} runs them, with held answers like a
    node's; [METRICS], [HEALTH], [HORIZON] and [TRACE] answer what
    {!metrics}, {!health}, {!horizon} and {!recent_traces} do; and
    [SUBSCRIBE], [REPLICATE] and the shard requests answer [Err].
    @raise Unix.Unix_error when the address cannot be bound *)

(** {1 Cluster management} *)

val shard_map : t -> Wire.shard_map

val add_shard : t -> endpoint -> (string, string) result
(** Grows the map to version [v+1] with one more shard: bootstraps the
    newcomer's catalog and clock (a table it already has with the
    cluster's columns is kept but emptied, so a failed ADD, which
    closes its connection to the node, can be retried onto the same
    node without reviving a row deleted in between; other columns are
    an error), then moves every row whose owner changed,
    per table: it reads each old shard's rows,
    decides their owners under the new map itself, loads them at their
    owners ([Move_rows] adds) and, once every load is acknowledged,
    deletes them at their sources ([Move_rows] removes), each step one
    fan-out.  A failure leaves the old map routing.  A cut before the
    deletes loses no row but can leave copies, and a copy at a shard
    the old map names is read: scans and point reads absorb it, but
    [COUNT] and the grouped partials count it twice.  With two or more
    old shards [hash mod n] loads rows onto old shards too, so a cut
    load can leave such copies (found by reading, not probed); a cut
    that stops some sources' deletes and not others can also lose rows
    from answers.  ROADMAP item 2 (finish or undo a failed move) is
    the fix.  A source's partition of a table travels in one reply, so
    it is bounded by the 16 MiB frame.

    A move runs alone: it waits out the SQL statements in flight through
    this coordinator ({!exec} or the wire), and statements issued while
    it runs wait until it ends, so each sees the partitions before the
    move or after it.  [HORIZON], [HEALTH], [METRICS], [TRACE] and
    [SHARDS] do not wait, so an operator can watch a long move; a
    forecast gathered meanwhile can count a moving row twice or miss
    it.  Writes that reach a shard other than through this coordinator
    are not covered.  Nodes hold no map version, so nothing fences two
    coordinators' rebalances over the same nodes: only one coordinator
    may rebalance a set of nodes. *)

val remove_shard : t -> int -> (string, string) result
(** Shrinks the map to version [v+1]: moves the leaver's rows to the
    survivors as {!add_shard} moves rows, then drops the slot.  Runs
    alone, as {!add_shard} does. *)

val heartbeat_now : t -> unit
(** One synchronous heartbeat round ([Shard_ping] posted to every
    shard, the pongs gathered on the caller's thread):
    refreshes reachability, partition summaries and the clock mirror,
    and records each shard's boot id: the slot's first pong records
    it, and a later pong bringing another id marks the shard
    restarted.  A map change keeps every slot's record: it changes no
    node's boot id, and a restarted shard's partition stays gone until
    {!remove_shard} drops the slot.  The background thread
    calls this on its interval; tests with [~heartbeat_interval:0.]
    call it directly. *)

(** {1 Observability} *)

val metrics : t -> string
(** The coordinator's METRICS page: the request loop's families and the
    [expirel_cluster_*] ones — per-shard request, pruned, routed,
    fan-out, message, byte and kept GROUP BY read counters, map-version
    and shard-health gauges. *)

val health : t -> Expirel_obs.Health.report
(** Evaluates the coordinator's health rules over its own metrics —
    with {!default_health_rules}: degraded from the first unreachable
    or restarted shard, critical from a majority; plus the predictive
    storm rules over the merged horizon (refreshed by this call): degraded
    when half the cluster's live rows expire within the next window,
    or when the next ADVANCE window delivers hundreds of subscription
    events. *)

val horizon : ?table:string -> t -> (Expirel_obs.Horizon.report, string) result
(** The cluster-wide expiration forecast: every shard's bucketed
    horizon gathered and merged bucket-wise — exact, because hash
    partitions are disjoint row sets — with the per-shard live-row
    breakdown in its [shards].  Refreshes the cache behind the
    [expirel_cluster_horizon_*] gauges when [table] is [None].
    [table] restricts the forecast to one table. *)

val default_health_rules : shards:int -> Expirel_obs.Health.rule list

val recent_traces : t -> int -> Expirel_obs.Trace_store.entry list
(** The cluster-wide trace view, newest first: this coordinator's
    entries merged with every shard's — one trace id collects the
    coordinator lane plus a lane per contacted shard, ready for
    {!Expirel_obs.Trace_export}. *)

val trace_store : t -> Expirel_obs.Trace_store.t

type traffic = {
  fanouts : int;  (** scatter-gather queries executed *)
  pruned : int;
      (** shard contacts skipped by the pruning invariant (contacts
          skipped by key routing count in
          [expirel_cluster_routed_total] instead) *)
  messages : int;  (** coordinator-to-shard requests sent *)
  bytes_sent : int;  (** encoded request bytes, framing included *)
  bytes_received : int;  (** encoded reply bytes, framing included *)
}

val traffic : t -> traffic
(** Cumulative traffic counters — the bench's measure of what pruning
    saves versus broadcast. *)

val summaries : t -> (int * Wire.partition_texp option * bool) list
(** Per shard: id, cached partition summary ([None] = unknown) and
    reachability — the raw inputs to the pruning decision. *)
