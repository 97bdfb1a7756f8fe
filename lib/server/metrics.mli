(** Server metrics, built on the {!Expirel_obs} instrument library.

    Counters, gauges and histograms live in an [Obs.Registry], the one
    counter surface of a server: {!prometheus} renders it — wire
    counters, per-stage and per-operator trace timings, replication
    state and whatever expiration-domain gauges the server registered —
    as a Prometheus text-format page for the [METRICS] command, and
    in-process readers collect the same registry
    ([Server.collect_metrics], read with [Obs.Registry.values]).

    Metric names follow the scheme [expirel_<subsystem>_<what>_<unit>]
    with Prometheus base units (seconds, bytes) and [_total] on
    counters; labeled families carry one label each ([mode] for
    expiration policy, [stage] for request stages, [operator] for
    algebra operators, [role] for replication).

    Every instrument releases its mutex on the way out of a raising
    callback ([Fun.protect] throughout the instrument library), so a
    failing labelled lookup or replication provider can no longer
    deadlock every subsequent metrics-touching request — the bug the
    previous hand-rolled [locked] helper had. *)

type repl_role =
  | Primary  (** ships its log to followers *)
  | Replica  (** applies a primary's log *)

type repl_stats = {
  role : repl_role;
  source_position : int;
      (** the primary's log position as last heard (a primary's own) *)
  lag_records : int;  (** records behind the source *)
  clock_lag : int;
      (** logical-time distance to the source clock, in ticks *)
  reconnects : int;  (** times the applier had to redial *)
  bootstraps : int;  (** snapshot bootstraps received (or served) *)
  records_shipped : int;  (** stream records applied (or shipped) *)
  followers : int;  (** live replication sessions (primary side) *)
}
(** What a replication provider reports; the node's own position is
    the server's [expirel_wal_position]. *)

type t

val create : unit -> t
(** With [expirel_build_info] (value 1, with [version], [wire_version]
    and [ocaml_version] labels) and [expirel_uptime_seconds] (since
    this call), so every scrape identifies its producer. *)

val registry : t -> Expirel_obs.Registry.t
(** For registering additional (domain) metrics — the server adds
    expiration-index depth, view horizons, WAL position and
    replication state as polled gauges. *)

val connection_opened : t -> unit
(** Bumps both the total and the active-connection gauge. *)

val connection_closed : t -> unit
val incr_requests : t -> unit
val incr_errors : t -> unit
val add_bytes_in : t -> int -> unit
val add_bytes_out : t -> int -> unit
val incr_events_pushed : t -> unit

val set_expirations : t -> mode:[ `Eager | `Lazy ] -> (unit -> int) -> unit
(** The source of [expirel_tuples_expired_total], polled at exposition:
    [count ()] tuples expired so far, labeled by how their removal
    happens: [`Eager] when the clock advance removes them at their
    expiration time, [`Lazy] when a vacuum reclaims them late (Section
    3.2's two policies).  Without a source the counter has no sample. *)

val incr_held_reply : t -> delta:bool -> unit
(** One [Held_rows] reply sent, a delta or the whole answer. *)

val add_held_answers : t -> int -> unit
(** Moves the held-answers gauge by [n] (negative when freed). *)

val observe_latency : t -> seconds:float -> unit
(** Adds one request to the latency histogram (log-scale microsecond
    bounds including the 500 ms bucket, rendered in seconds). *)

val observe_trace : t -> Expirel_obs.Trace.t -> unit
(** Feeds one traced request's spans into the per-stage and
    per-operator histograms ([op:<name>] spans go to the operator
    family, every other span to the stage family).
    Histograms observe each span's {e self} time
    ({!Expirel_obs.Trace.self_us}): a parent span's bucket no longer
    double-counts the children nested inside it.  Each span name's
    histogram is looked up once and kept in an array indexed by the
    interned name, so a request's observations hash nothing. *)

val set_repl_source : t -> (unit -> repl_stats option) -> unit
(** Installs the provider the [expirel_repl_*] samples poll: role,
    source position, lag in records and ticks, followers, reconnects,
    snapshots and records applied or shipped.  The server installs a
    primary-side provider when it opens a durable store; a
    [Expirel_repl.Replica] replaces it with its applier's view.  Called
    outside every metrics mutex, so it may take other locks.  While no
    provider answers ([None], or it raises) those families carry no
    sample. *)

val repl_source : t -> unit -> repl_stats option
(** The installed provider (never raises: a raising provider yields
    [None]) — the [expirel_repl_*] samples poll replication state
    through this. *)

val build_version : string
(** The build's version string, as exported on [expirel_build_info]. *)

val prometheus : t -> string
(** The registry rendered as a Prometheus text-format page.  Polled
    gauges run during this call: the caller must hold whatever locks
    those gauges' data need (the server serves [METRICS] under its
    read lock). *)
