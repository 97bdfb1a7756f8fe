(** The versioned, length-framed binary wire protocol of the expirel
    server.

    Each payload travels in one {!Frame} (a 4-byte big-endian length
    prefix); a payload is one protocol-version byte, one message
    tag byte and the message body, every field in the one binary
    encoding of {!Expirel_core.Codec}.  Result relations travel {e with}
    their per-tuple expiration times and the expression-level [texp(e)]
    — the validity information that makes remote caching of results
    sound (a client holding a [Rows] response knows exactly how long
    each row, and the result as a whole, stays current without any
    further contact).

    Everything in this module is a pure function over strings: encoders
    never perform IO and decoders never raise, so the codec can be
    property-tested (round-trips) and fuzzed (truncations, oversized
    length prefixes, unknown tags) directly.  Socket plumbing lives in
    {!Frame}. *)

open Expirel_core
open Expirel_storage

val version : int
(** Protocol version carried in every payload; mismatches decode to
    [Error].

    {2 Version-bump policy}

    The version byte is bumped when, and only when, a change makes
    payloads that an older peer could receive undecodable or
    misinterpretable: removing or renumbering a tag, changing the body
    layout of an existing tag, or changing a field's meaning.  Adding a
    {e new} tag alone does not strictly require a bump (old decoders
    reject unknown tags cleanly), but this protocol still bumps for new
    tags a peer is expected to {e send} unprompted — a v1 server would
    otherwise answer a replication handshake with an opaque
    [Proto_error] instead of a diagnosable mismatch.

    History: v1 — request tags 1–6, response tags 1–7, error codes 1–6.
    v2 — adds the [Replicate] handshake (request tag 7), the replication
    stream responses (tags 8–10), the [Version_mismatch] error code (7)
    and a trailing optional replication section in [stats].
    v3 — adds the observability requests [Metrics] (tag 8) and
    [Slow_queries] (tag 9) with their responses [Metrics_reply] (11) and
    the slow-query reply (12); clients send them unprompted, so the
    bump gives pre-v3 servers a diagnosable mismatch instead of an
    opaque protocol error.  No existing layout changed — in particular
    [stats] still carries its latency-bucket bounds in the payload, so
    the histogram gaining a bucket needed no wire change at all.
    v4 — distributed tracing and health.  This bump is {e required},
    not courtesy: two existing layouts changed — [span] gained ids,
    parent ids and labels (so slow-query breakdowns can be rebuilt as
    trees), and the [Replicate] handshake gained a trailing optional
    trace context (so WAL-shipping sessions join the follower's trace).
    A v3 peer would misparse both.  New tags: requests [Exec_traced]
    (10, an [Exec] carrying the caller's trace context so primary and
    replica spans share one trace id), [Trace_recent] (11) and [Health]
    (12); responses [Traces_reply] (13) and [Health_reply] (14).
    v5 — sharded clusters.  New tags only; no existing layout changed,
    but coordinators send the new tags unprompted, so the bump gives a
    pre-v5 shard a diagnosable mismatch.  Requests: [Shard_map_req]
    (13), [Shard_install] (14, the coordinator's handshake pushing a
    versioned {!shard_map} plus the node's own shard id — re-sent with
    a higher version on rebalance), [Exec_shard] (15, an [Exec] whose
    reply piggybacks the shard id and the {!partition_texp} summary the
    coordinator's pruning feeds on), [Shard_ping] (16, the cluster
    heartbeat), and the ownership-transfer triple [Extract_moving]
    (17) / [Ingest_rows] (18) / [Purge_moved] (19).  Responses:
    [Shard_map_reply] (15), [Shard_rows] (16), [Shard_ack] (17),
    [Shard_pong] (18) and [Moved_rows] (19).
    v6 — distributed approximate aggregates.  New tags only, sent
    unprompted by coordinators: request [Sketch_shard] (20, an
    [Exec_shard] whose reply carries a serialised sketch partial
    instead of rows) and response [Shard_sketch] (20, the shard's
    partial: an opaque {!Expirel_sketch.Any} encoding plus the answer's
    column labels and the usual partition summary).
    v7 — distributed grouped aggregates and broadcast joins.  New tags
    only, sent unprompted by coordinators: requests [Agg_shard] (21, an
    [Exec_shard] for a decomposable GROUP BY/aggregate query whose
    reply carries expiration-slice partials instead of rows — AVG
    travels as SUM + COUNT inside the slices, never pre-averaged) and
    the broadcast-join request (22: the small build side's complete
    rows ride along and the shard joins them against its local probe
    fragment, replying with ordinary [Shard_rows]); response
    [Shard_agg] (21, the shard's per-group slice partials plus the
    child's [texp(e)]).  Also adds error code 8, [Shard_failed]: the
    single typed error a coordinator surfaces when a shard dies or
    answers garbage mid-scatter-gather.
    v8 — expiration-horizon telemetry.  This bump is {e required}: the
    [slow_query] body changed — each entry now leads with the trace id
    it was recorded under, so slow-log entries join against [TRACES]
    exports; a v7 peer would misparse the slow-query reply.  New tags:
    request [Horizon] (23, the forward expiration forecast, optionally
    restricted to one table — coordinators send it unprompted when
    gathering cluster-wide horizons) and response [Horizon_reply] (22,
    the per-table bucketed forecast plus fan-out and churn figures,
    merged bucket-wise across shards).
    v9 — one coordinator-to-shard statement RPC.  This bump is
    {e required}: tags were removed.  Requests [Exec_shard] (15),
    [Sketch_shard] (20) and [Agg_shard] (21) became one [Shard_exec]
    (24), and the broadcast-join request (22) is gone with the
    broadcast join itself.  [Shard_exec] carries the SQL string, the
    optional trace context, then one [want] byte — 1 rows-or-ack,
    2 sketch partial, 3 aggregate partial.  Responses
    [Shard_rows] (16), [Shard_ack] (17), [Shard_sketch] (20) and
    [Shard_agg] (21) became one envelope [Shard_reply] (23): the
    {!partition_texp} summary, then a body tag byte — 1 rows (columns,
    rows, [texp_e], recomputed), 2 ack (message), 3 sketch (columns,
    payload), 4 aggregate (columns, child [texp(e)], groups).  The
    envelope drops the v5–v8 replies' shard id: the coordinator knows
    which slot it asked.  [Ingest_rows] and [Purge_moved] answer with
    an ack body; [Shard_pong] is unchanged.
    v10 — one counter surface.  This bump is {e required}: tags were
    removed.  The STATS request (4) and its reply (5), with the
    counter record and the replication section it carried, are gone;
    every counter they reported is a sample on the [Metrics_reply]
    page.  Tags 4 and 5 are left unused.
    v11 — standing cluster GROUP BY COUNT.  This bump is
    {e required}: two layouts changed.  The [Shard_exec] want byte 3
    (aggregate partial) is followed by an optional cursor (presence
    byte, then the shard's standing entry id and write generation as
    varints).  The aggregate body's groups lead with a form byte — 1:
    the v9 layout (seven fixed fields per slice); 2: COUNT slices as
    varint [(texp, count)] pairs, lengths as varints — and are followed
    by an optional standing delta (presence byte; cursor, the shard's
    clock as a varint time, full flag, then per group its key and its member multiset as varint
    [(texp, count)] pairs).  A varint is the little-endian base-128
    form of the 64-bit pattern (signed ints zigzagged; a time is 0 for
    [Inf], else its zigzag plus one).  A condensed COUNT group drops
    from 89 to about 20 bytes.
    v12 — one binary codec.  This bump is {e required}: every layout
    changed.  Every field is written by {!Expirel_core.Codec}: ints
    (ids, positions, counts, span times) as zigzag varints, strings and
    lists behind varint lengths, times as varints ([Inf] = 0), floats
    as little-endian IEEE bits, and [parent_id], the [Horizon] table
    and the [Shard_map_reply] identity behind the codec's presence
    byte.  Tags, the COUNT group forms and the frame's 4-byte length
    prefix are unchanged, and so is {!shard_owner}.  A one-row
    [Rows] reply drops from 57 to about 22 bytes.
    v13 — one record encoding.  This bump is {e required}: the
    [Repl_snapshot] (8) and [Repl_records] (9) bodies changed.  Each
    record is {!Wal.put_record}'s bytes inline in the list (a tag byte,
    then its fields through {!Expirel_core.Codec}), where v12 nested
    the log's percent-escaped text line in a string.  The wire carries
    no checksum: the log's CRC-32 guards bytes at rest only.
    v14 — held answers.  New tags, sent unprompted by every client: the
    request [Statement] (25: the SQL, an optional trace context, then
    an optional held version) and the reply [Held_rows] (24: a version,
    then a body byte — 1 the whole answer (columns, rows, [texp_e],
    recomputed), 2 a delta (the base version it patches, columns, the
    upserted rows, the removed tuples as value lists, [texp_e],
    recomputed)).  A v13 server would answer the first statement with
    an opaque protocol error; the bump makes it a diagnosable
    mismatch.  [Exec] (1) and [Exec_traced] (10) keep their layouts and
    are answered as a [Statement] holding nothing.
    v15 — a standing COUNT delta ships condensed groups.  This bump is
    {e required}: a [Body_agg]'s delta is now its cursor and its
    [full] flag alone, and the groups it names ride in the body's
    groups list in the COUNT form (a slice-less group for one gone),
    where v14 shipped the shard's clock and each group's member
    multiset beside an empty groups list.  A shard now also names a
    group whose earliest members expired, so the coordinator no longer
    ages its copies.
    v16 — a coordinator's kept GROUP BY reads through held answers.
    This bump is {e required}: two layouts changed.  The [Shard_exec]
    want byte 3 is followed by an optional held version (presence byte,
    then a varint; [0] names no copy) where v15 carried a cursor, and
    a [Body_agg] ends with an optional [(version, full)] pair where v15
    carried the cursor and the flag.  The shard diffs the standing
    groups it last shipped to the connection for the text against its
    entry's present ones, so its standing entries keep no key log,
    write generation or id.
    v17 — the wire carries the observability records themselves.
    This bump is {e required}: [Slow_queries] (9) is now answered with
    [Traces_reply] (13), the trace store's slowest entries, where v16
    answered with the slow-query reply (12): a statement, trace id,
    total and spans per entry.  Tag 12 is retired and left unused.
    The [Traces_reply] (13) and [Health_reply] (14) bodies are
    unchanged: a span is its name, id, optional parent, start,
    duration and labels; an entry its node, trace id, name, start
    time, total and spans; a health rule its name, reading, level
    byte (1 ok, 2 degraded, 3 critical) and help.
    v18 — a coordinator answers the wire.  This bump is {e required}:
    the [Horizon_reply] (22) body ends with the per-shard live-row list
    (each a shard id string and a count; empty from a node), so a
    client of a coordinator reads the breakdown the coordinator's
    HORIZON used to print only in process.
    v19 — a node holds no shard map.  This bump is {e required}: tags
    were removed and two layouts changed.  Requests [Extract_moving]
    (17), [Ingest_rows] (18) and [Purge_moved] (19) and the response
    [Moved_rows] (19) are retired and left unused: the coordinator
    decides each row's owner, reads the rows through [Shard_exec] and
    writes them with the new request [Move_rows] (26: a table name,
    the rows to add with their expiration times, then the tuples to
    remove as value lists), answered with a [Shard_reply] ack.
    [Shard_install] (14) carries a map version and the node's id where
    v18 carried the whole map, and the [Shard_map_reply] (15) identity
    is the installed version and the id.
    v20 — a node holds no cluster identity.  This bump is
    {e required}: tags were removed and a layout changed.  Requests
    [Shard_map_req] (13) and [Shard_install] (14) and the response
    [Shard_map_reply] (15) are retired and left unused: a coordinator
    claims no node.  [Shard_pong] (18) carries the node's boot id (a
    string drawn once when the server is created) where v19 carried
    its shard id and map version; a coordinator counts a shard whose
    pong brings another boot id than the one it recorded as
    restarted.

    On decode failure, a peer should check {!payload_version}: when the
    sender speaks a different version, answer
    [Err { code = Version_mismatch; _ }] (whose layout has been stable
    since v1, so even an old peer renders it) rather than a generic
    protocol error. *)

(** {1 Messages} *)

type error_code =
  | Parse_error  (** the statement did not parse *)
  | Exec_error  (** the statement parsed but failed to execute *)
  | Proto_error  (** undecodable or inappropriate message *)
  | Timeout  (** the request missed the server's per-request deadline *)
  | Overloaded  (** the connection cap was reached *)
  | Shutting_down  (** the server is draining *)
  | Version_mismatch
      (** the peer speaks a different protocol version (the error
          message names both) *)
  | Shard_failed
      (** a shard died or answered garbage mid-scatter-gather: the
          distributed query cannot be answered from the surviving
          shards (partitions are disjoint, so a missing partial means a
          missing slice of the answer) *)

type event =
  | Row_expired of { subscription : string; row : Value.t list; at : Time.t }
  | Row_appeared of {
      subscription : string;
      row : Value.t list;
      texp : Time.t;
      at : Time.t;
    }
  | Refreshed of { subscription : string; at : Time.t }
      (** mirrors {!Expirel_exec.Subscription.event}, with tuples
          flattened to value lists; a write pushes its events at its
          instant, before it is acknowledged *)

type trace_ctx = {
  trace_id : string;  (** opaque id minted by the originating node *)
  parent_span : int;
      (** the caller's span id under which this request's spans nest;
          [0] (span ids are 1-based) means the caller had no open span *)
}
(** Propagated trace context: a node receiving one records its spans
    under the caller's trace instead of minting a fresh id. *)

val ctx_of_trace : Expirel_obs.Trace.t -> trace_ctx
(** The context a remote call made right now should carry: the trace's
    id, and its innermost open span ([0] when none is open) as the
    remote side's root parent. *)

val trace_of_ctx : trace_ctx -> Expirel_obs.Trace.t
(** A fresh trace recording under the caller's id, its top-level spans
    nested under [parent_span] (none when [0]) — the inverse of
    {!ctx_of_trace} across the wire. *)

type shard = {
  shard_id : int;  (** stable identity, survives rebalances *)
  shard_host : string;
  shard_port : int;
}

type shard_map = {
  map_version : int;  (** bumped by every ADD and REMOVE SHARD *)
  shards : shard list;  (** position in this list drives routing *)
}
(** The cluster's partitioning contract: a row lives on
    [shard_owner map key] where [key] is the row's first column.  Only
    a coordinator holds a map. *)

type partition_texp = {
  live_rows : int;  (** live tuples across all tables, at the node's clock *)
  min_texp : Time.t;  (** min over live tuples; [Inf] when none *)
  max_texp : Time.t;  (** max over live tuples; [Inf] when none *)
}
(** The {!Expirel_core.Relation} texp bounds lifted to a whole shard:
    piggybacked on every [Shard_reply] and [Shard_pong] so the
    coordinator can prove a partition empty at some [tau]
    ([live_rows = 0], or [max_texp <= tau]) without contacting it. *)

val value_hash : Value.t -> int
(** FNV-1a (32 bits) over the value's canonical bytes: a tag byte ([0]
    Null, [1] Bool, [2] an integer, [3] any other Float, [4] Str), then
    the payload — a Bool's byte, an integer's 8 bytes big-endian, a
    Float's IEEE bits big-endian, a string's bytes.  An integral
    [Float] with [|f| <= 2^53] is the integer it equals.  Allocates
    nothing. *)

val shard_owner : shard_map -> Value.t -> int
(** [shard_owner map key] is the id of the shard owning rows whose
    first column is [key]: FNV-1a over the key's canonical encoding,
    modulo the shard count.  An integral [Float] with [|f| <= 2^53]
    is encoded as the [Int] it equals, so keys {!Value.cmp} equates
    share an owner (beyond that range, and for NaN, they need not).  Pure and deterministic across processes —
    this single definition is the routing contract of the protocol.
    @raise Invalid_argument on an empty map *)

type want =
  | Want_rows
      (** the statement's own answer: rows for a query, an ack message
          for anything else *)
  | Want_sketch
      (** for an [APPROX_COUNT]/[SAMPLE] query: the shard folds the
          query's child over its own partition into a bounded-memory
          sketch — constant-size on the wire regardless of partition
          cardinality *)
  | Want_agg of int option
      (** for a decomposable GROUP BY/aggregate query: the shard
          condenses the aggregate's child over its own partition into
          per-group expiration-slice partials
          ({!Expirel_exec.Partial_agg}) — per group at most two slices
          for COUNT, one per distinct expiration time otherwise, with
          AVG travelling as its SUM and COUNT components.  [None] is a
          stateless read: the connection holds nothing for it.  [Some
          v] is a kept read whose copy holds the groups shipped as
          version [v] on this connection ([0]: none).  A grouped COUNT
          over a scan without [AT] then answers from the shard's
          standing entry: when the connection holds [v] for the text,
          only the groups changed since
          ({!Expirel_exec.Partial_agg.standing_diff}: every group when
          the entry was rebuilt since); else every group; either under
          a fresh version *)
(** What a coordinator asks a shard to answer a statement with. *)

type held_groups = {
  version : int;
      (** the version the reader's copy holds once it applied the reply *)
  full : bool;
      (** the reply's groups are every group the entry holds, not only
          those changed since the version the request named *)
}
(** How a kept [Want_agg] read was answered from a standing entry. *)

type shard_body =
  | Body_rows of {
      columns : string list;
      rows : (Value.t list * Time.t) list;
      texp_e : Time.t;
      recomputed : bool;
    }
      (** [Rows]: the coordinator merges the row sets and reports the
          min of the partial [texp_e]s (the paper's union rule — exact
          here because hash partitions are disjoint) *)
  | Body_ack of string  (** [Ok_msg] *)
  | Body_sketch of { columns : string list; payload : string }
      (** a sketch partial: [payload] is an opaque
          {!Expirel_sketch.Any.to_string} encoding the coordinator
          decodes, merges across shards (sketches are shard-
          decomposable) and queries at its own tau; the merged answer's
          [texp_e] is the merged sketch's horizon *)
  | Body_agg of {
      columns : string list;
      child_texp : Time.t;
      groups : Expirel_exec.Partial_agg.group list;
      held : held_groups option;
    }
      (** a grouped-aggregate partial: per-group expiration slices the
          coordinator merges with {!Expirel_exec.Partial_agg.merge_all}
          and finalises once — the distributed query's rows and texps
          come out identical to a single node holding all rows, because
          the slice components (counts, sums, extrema) are
          partition-decomposable and the finalisation is shared code,
          not a reimplementation.  [held] answers a kept read the
          shard answered from its standing COUNT entry: [groups] are
          then the groups changed since the version the request named
          (every group when [full], and every group too when the entry
          was evicted and rebuilt since), a slice-less group for one gone,
          and the coordinator replaces its copy of each.  [None] for a
          stateless read, and for a kept one the shard answered
          without a standing entry *)
(** The payload of a {!Shard_reply}, one per {!want} (acks also answer
    a rebalance's [Move_rows]). *)

type request =
  | Exec of string
      (** one sqlx statement, answered as a [Statement] holding
          nothing; {!Client} sends [Statement] instead *)
  | Subscribe of { name : string; query : string }
      (** register a continuous query; events stream back on this
          connection at the exact logical change times *)
  | Unsubscribe of string
  | Ping
  | Quit
  | Replicate of {
      replica_id : string;
      position : int;
      ctx : trace_ctx option;
          (** when present, the primary records its shipping spans under
              the follower's trace *)
    }
      (** switch this connection into a replication session: stream the
          log from [position] (the count of records the follower has
          already applied) onwards *)
  | Metrics
      (** full metric exposition in Prometheus text format
          ([Metrics_reply]) *)
  | Slow_queries of int
      (** the [n] slowest retained statement traces, slowest first
          ({!Expirel_obs.Trace_store.slowest}), answered as a
          [Traces_reply] *)
  | Exec_traced of { sql : string; ctx : trace_ctx }
      (** [Exec] carrying the caller's trace context: the server's spans
          for this request record under [ctx.trace_id] with
          [ctx.parent_span] as their root parent, so a fan-out request
          yields one cross-node trace.  Like [Exec], answered as a
          [Statement] holding nothing *)
  | Trace_recent of int
      (** the [n] most recent request traces ([Traces_reply]) *)
  | Health
      (** evaluate the server's health rules ([Health_reply]) *)
  | Shard_ping
      (** cluster heartbeat ([Shard_pong]): refreshes the partition
          summary and reports the node's boot id and clock *)
  | Horizon of string option
      (** the forward expiration forecast ([Horizon_reply]): per-table
          bucketed counts of live rows by ticks-to-expiry, the
          subscription fan-out forecast for the next window, and churn
          rates.  [Some table] restricts the profile to one table
          (unknown tables answer [Err]). *)
  | Shard_exec of { sql : string; ctx : trace_ctx option; want : want }
      (** a statement issued by a coordinator, answered with a
          [Shard_reply] whose body is what [want] asks for — or [Err].
          The shard takes its lock once: the statement and the
          {!partition_texp} summary the reply piggybacks read one
          state, so every reply refreshes the coordinator's pruning
          cache with the partition the statement left behind *)
  | Statement of { sql : string; ctx : trace_ctx option; held : int option }
      (** one sqlx statement, a client's only statement request.
          [ctx] makes the server's spans record under the caller's
          trace, as for [Exec_traced].  [held] names the version of the
          answer to this same text the client holds a copy of.  The
          reply to a query without ORDER BY or LIMIT whose answer has at
          least {!held_min_rows} and at most {!held_budget} rows is
          [Held_rows]: a delta against
          [held] when the server holds that version too and the delta
          has fewer rows than half the answer, else the whole answer
          under a fresh version.  Every other reply is what [Exec]
          gets; a plain [Rows] tells the client to drop its copy *)
  | Move_rows of {
      table : string;
      add : (Value.t list * Time.t) list;
      remove : Value.t list list;
    }
      (** a rebalance's one write, answered with a [Shard_reply] ack or
          [Err]: load [add] with its original expiration times, then
          delete the [remove] tuples, under one write lock, each change
          through the node's one write path (watches, MAINTAINED views
          and the log see it).  Refused on a read-only replica.  [add]
          is validated whole first: a row the table refuses (a wrong
          arity) answers [Err] and nothing is written.  A row already
          expired at the node's clock is dropped, not resurrected; a
          [remove] tuple the node does not hold is skipped.  The
          coordinator picks both lists: a node never decides where a
          row lives *)

type held_body =
  | Held_whole of {
      columns : string list;
      rows : (Value.t list * Time.t) list;  (** in tuple order *)
      texp_e : Time.t;
      recomputed : bool;
    }
  | Held_delta of {
      base : int;  (** the version of the copy this patches *)
      columns : string list;
      upserts : (Value.t list * Time.t) list;
          (** rows added or re-timed since [base], in tuple order *)
      removed : Value.t list list;
          (** tuples gone since [base], in tuple order *)
      texp_e : Time.t;
      recomputed : bool;
    }
(** The body of a [Held_rows] reply. *)

type response =
  | Ok_msg of string
  | Rows of {
      columns : string list;
      rows : (Value.t list * Time.t) list;  (** presentation order, each
                                                with its [texp] *)
      texp_e : Time.t;  (** expression-level expiration of the result *)
      recomputed : bool;
    }
  | Err of { code : error_code; message : string }
  | Event of event  (** pushed, not solicited: may arrive at any frame
                        boundary *)
  | Pong
  | Bye
  | Repl_snapshot of { position : int; records : Wal.record list }
      (** bootstrap: the full live state as of [position]; replaying
          [records] on an empty database reproduces it *)
  | Repl_records of { from_position : int; records : Wal.record list }
      (** the stream: records covering positions
          [(from_position, from_position + length records]] *)
  | Repl_heartbeat of { position : int; now : Time.t }
      (** periodic when the stream is idle, so followers can measure
          lag (in records and logical time) against a live primary *)
  | Metrics_reply of string
      (** Prometheus text-format exposition page, opaque to the wire
          layer *)
  | Traces_reply of Expirel_obs.Trace_store.entry list
      (** the trace store's own entries: newest first for
          [Trace_recent], slowest first for [Slow_queries] *)
  | Health_reply of Expirel_obs.Health.report
      (** the server's evaluated report: the overall verdict (worst
          firing rule) plus every firing rule; an empty [firing] list
          means every rule read healthy *)
  | Shard_pong of {
      boot_id : string;
          (** drawn once per server: a pong bringing another id than
              the one a coordinator recorded comes from a restarted
              node, whose in-memory partition is gone *)
      now : Time.t;  (** the node's logical clock *)
      partition : partition_texp;
    }
  | Horizon_reply of Expirel_obs.Horizon.report
      (** the expiration forecast.  Buckets count disjoint row sets, so
          a coordinator rolls per-shard replies up with
          {!Expirel_obs.Horizon.merge_reports} — bucket-wise addition,
          exact by construction — and answers the merged report with
          its per-shard live rows *)
  | Shard_reply of { partition : partition_texp; body : shard_body }
      (** the answer to [Shard_exec] and [Move_rows]:
          the shard's partition summary as the statement left it, and
          the body *)
  | Held_rows of { version : int; body : held_body }
      (** a [Statement]'s held answer: the client keeps the patched
          rows as [version] and names it on its next read of the text *)

(** {1 Codecs} — payloads only (no length prefix) *)

val encode_request : request -> string
val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

val payload_version : string -> int option
(** The version byte of a raw payload ([None] on the empty string) —
    readable even when the rest does not decode, so a server can tell a
    foreign-version peer from garbage and answer with
    [Version_mismatch]. *)

val held_min_rows : int
(** 64: a smaller answer is sent whole and not held. *)

val held_budget : int
(** 32 768: the rows each side of a connection holds answers for, a
    client's rows or a coordinator's kept GROUP BY groups at a shard,
    oldest evicted first until the held rows fit.  An answer larger
    than the budget is sent as plain rows and not held. *)

val patch :
  (Value.t list * Time.t) list ->
  upserts:(Value.t list * Time.t) list ->
  removed:Value.t list list ->
  ((Value.t list * Time.t) list, string) result
(** [patch rows ~upserts ~removed] applies a [Held_delta] to a copy in
    tuple order, in one pass that shares the copy's tail after the last
    edit.  [Error] when the edits are not in strictly increasing tuple
    order or a removal names a row the copy lacks — a delta that does
    not fit the copy, never a patched answer. *)

val render_response : response -> string
(** Human-readable rendering (one line per row), for the CLI and
    examples. *)

val parsing : (string -> 'a) -> string -> ('a -> response) -> response
(** [parsing parse text k] answers [k] of [parse text], or — when
    [parse] raises {!Expirel_sqlx.Parser.Error} — the one reply to a
    statement that does not parse: [Parse_error], ["at offset N: ..."].
    A node's EXEC, SHARD_EXEC and SUBSCRIBE and a coordinator's
    statements all answer a syntax error with it. *)
