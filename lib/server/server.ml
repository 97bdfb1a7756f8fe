open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx
module Obs = Expirel_obs

(* The span names and label keys this module records, interned once. *)
let rwlock_wait_span = Obs.Trace.name "rwlock_wait"
let parse_span = Obs.Trace.name "parse"
let held_span = Obs.Trace.name "held"
let ship_span = Obs.Trace.name "repl:ship"
let replica_key = Obs.Trace.name "replica"

type config = {
  host : string;
  port : int;
  max_connections : int;
  request_timeout : float;
  policy : Database.policy;
  data_dir : string option;
  read_only : bool;
  node_name : string;
  health_rules : Obs.Health.rule list;
}

(* Thresholds are deliberately conservative defaults; deployments tune
   them through [config.health_rules]. *)
let default_health_rules =
  [ { Obs.Health.name = "replication_lag_records";
      source = Obs.Health.Metric "expirel_repl_lag_records";
      op = Obs.Health.Above;
      degraded = 64.;
      critical = 1024.;
      help = "records behind the replication source"
    };
    { Obs.Health.name = "expiration_index_backlog";
      source = Obs.Health.Metric "expirel_expiration_index_depth";
      op = Obs.Health.Above;
      degraded = 100_000.;
      critical = 1_000_000.;
      help = "expiration backlog a clock advance or vacuum must process"
    };
    { Obs.Health.name = "slow_request_rate";
      (* The histogram observes microseconds; 50_000 = 50 ms. *)
      source =
        Obs.Health.Hist_frac_above
          { metric = "expirel_request_duration_seconds"; bound = 50_000. };
      op = Obs.Health.Above;
      degraded = 0.05;
      critical = 0.25;
      help = "fraction of requests slower than 50ms"
    };
    { Obs.Health.name = "plan_cache_hit_ratio";
      source =
        Obs.Health.Ratio
          { num = "expirel_plan_cache_hits_total";
            den = "expirel_plan_cache_requests_total";
            (* a freshly started server's first few queries are all
               misses by construction — don't page on a warming cache *)
            min_den = 100.
          };
      op = Obs.Health.Below;
      degraded = 0.5;
      critical = 0.1;
      help = "plan-cache hit ratio collapsed (DDL churn or one-shot \
              query texts defeat the LRU)"
    };
    (* The predictive pair: both read the horizon — the forecast of the
       next Δ ticks — so they fire {e before} the trouble, not after.
       Expiration times make this sound: the storm is already written
       into the data. *)
    { Obs.Health.name = "expiration_storm";
      source =
        Obs.Health.Ratio
          { num = "expirel_horizon_expiring_soon";
            den = "expirel_live_rows";
            (* a handful of short-lived rows is churn, not a storm *)
            min_den = 8.
          };
      op = Obs.Health.Above;
      degraded = 0.5;
      critical = 0.9;
      help = "expiration storm ahead: this fraction of live rows \
              expires within the next horizon window"
    };
    { Obs.Health.name = "fanout_storm";
      source = Obs.Health.Metric "expirel_horizon_fanout_events";
      op = Obs.Health.Above;
      degraded = 256.;
      critical = 4096.;
      help = "fan-out storm ahead: the next ADVANCE window delivers \
              this many subscription events"
    }
  ]

let default_config =
  { host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    request_timeout = 5.0;
    policy = Database.Eager;
    data_dir = None;
    read_only = false;
    node_name = "expirel";
    health_rules = default_health_rules
  }

(* What a connection was last sent for a statement text, as the
   version its peer holds a copy of: a client's answer, or a
   coordinator's kept GROUP BY groups.  Only the connection's worker
   thread touches its held answers. *)
type copy =
  | Answer of { answer : Relation.t; rows : int (* its cardinality *) }
  | Groups of Partial_agg.standing

type held = {
  version : int;
  copy : copy;
}

type conn = {
  id : int;
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  mutable alive : bool;
  mutable owned_subs : string list;
  held : (string, held) Lru.t;
  mutable last_version : int;
}

let new_conn ~id fd =
  { id;
    fd;
    write_mutex = Mutex.create ();
    alive = true;
    owned_subs = [];
    held = Lru.create ~capacity:Wire.held_capacity ();
    last_version = 0
  }

type t = {
  config : config;
  interp : Interp.t;
  store : Durable.t option;
  lock : Rwlock.t;
  metrics : Metrics.t;
  trace_store : Obs.Trace_store.t;
  mutable last_health : Obs.Health.level;
  state_mutex : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  threads : (int, Thread.t) Hashtbl.t;
  followers : (string, unit) Hashtbl.t;  (* live replication sessions *)
  mutable shard : Wire.shard_identity option;  (* cluster membership *)
  mutable records_shipped : int;
  mutable snapshots_served : int;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int option;
  mutable acceptor : Thread.t option;
  mutable shutting_down : bool;
  mutable store_closed : bool;
  mutable next_id : int;
}

let create ?(config = default_config) () =
  let store =
    Option.map
      (Durable.open_dir ~policy:config.policy)
      config.data_dir
  in
  let interp =
    match store with
    | Some s -> Interp.create ~store:s ()
    | None -> Interp.create ~policy:config.policy ()
  in
  let db = Interp.database interp in
  let metrics = Metrics.create () in
  (* Every expiration the storage observes shows up in METRICS,
     labeled by how it was removed: under the eager policy triggers
     fire from the clock advance at the tuple's expiration time, under
     the lazy policy from the (late) vacuum. *)
  let expiry_mode =
    match config.policy with
    | Database.Eager -> `Eager
    | Database.Lazy -> `Lazy
  in
  Trigger.register (Database.triggers db) ~name:"__server_stats" ~table:"*"
    (fun _ -> Metrics.incr_tuples_expired metrics ~mode:expiry_mode);
  let t =
    { config;
      interp;
      store;
      lock = Rwlock.create ();
      metrics;
      trace_store = Obs.Trace_store.create ();
      last_health = Obs.Health.Ok;
      state_mutex = Mutex.create ();
      conns = Hashtbl.create 16;
      threads = Hashtbl.create 16;
      followers = Hashtbl.create 4;
      shard = None;
      records_shipped = 0;
      snapshots_served = 0;
      listen_fd = None;
      bound_port = None;
      acceptor = None;
      shutting_down = false;
      store_closed = false;
      next_id = 0
    }
  in
  (* Primary-side replication state; a Replica wrapping this server
     replaces the provider with its applier's view. *)
  (match store with
   | Some s ->
     Metrics.set_repl_source metrics (fun () ->
         Some
           { Metrics.role = Metrics.Primary;
             source_position = Durable.position s;
             lag_records = 0;
             clock_lag = 0;
             reconnects = 0;
             bootstraps = t.snapshots_served;
             records_shipped = t.records_shipped;
             followers = Hashtbl.length t.followers
           })
   | None -> ());
  (* Expiration-domain gauges, polled at exposition time.  They read
     live database/interp state (table and view hashtables), so METRICS
     is served under the read lock — see [handle_request]. *)
  let reg = Metrics.registry metrics in
  Obs.Registry.gauge_fun reg ~name:"expirel_expiration_index_depth"
    ~help:"Rows held in all tables' texp-ordered runs: the backlog \
           an advance or vacuum must process" (fun () ->
      float_of_int (Database.pending_expirations db));
  Obs.Registry.custom reg ~name:"expirel_view_texp_horizon_ticks"
    ~help:"texp(e) horizon per view, in logical ticks (+Inf when the \
           materialisation is maintainable by expiration alone forever)"
    ~kind:Obs.Registry.Gauge_kind (fun () ->
      List.map
        (fun (view, texp) ->
          let v =
            match texp with
            | Time.Inf -> Float.infinity
            | Time.Fin n -> float_of_int n
          in
          ([ ("view", view) ], Obs.Registry.Gauge_sample v))
        (Interp.view_horizons t.interp));
  (match store with
   | Some s ->
     Obs.Registry.gauge_fun reg ~name:"expirel_wal_position"
       ~help:"Monotone log position (records ever logged)" (fun () ->
         float_of_int (Durable.position s));
     Obs.Registry.gauge_fun reg ~name:"expirel_wal_records_since_checkpoint"
       ~help:"Log records accumulated since the last checkpoint" (fun () ->
         float_of_int (Durable.wal_records s))
   | None -> ());
  (* Replication, through whatever provider is installed (primary or
     replica side).  No provider: the families are declared but carry
     no sample. *)
  let repl kind ~name ~help sample =
    Obs.Registry.custom reg ~name ~help ~kind (fun () ->
        match Metrics.repl_source metrics () with
        | Some r -> [ sample r ]
        | None -> [])
  in
  let repl_gauge ~name ~help pick =
    repl Obs.Registry.Gauge_kind ~name ~help (fun r ->
        ([], Obs.Registry.Gauge_sample (float_of_int (pick r))))
  in
  let repl_counter ~name ~help pick =
    repl Obs.Registry.Counter_kind ~name ~help (fun r ->
        ([], Obs.Registry.Counter_sample (pick r)))
  in
  repl Obs.Registry.Gauge_kind ~name:"expirel_repl_role"
    ~help:"Replication role (always 1; the role label carries it)"
    (fun r ->
      ( [ ("role",
           match r.Metrics.role with
           | Metrics.Primary -> "primary"
           | Metrics.Replica -> "replica") ],
        Obs.Registry.Gauge_sample 1. ));
  repl_gauge ~name:"expirel_repl_source_position"
    ~help:"The replication source's log position as last heard (a \
           primary's own)"
    (fun r -> r.Metrics.source_position);
  repl_gauge ~name:"expirel_repl_lag_records"
    ~help:"Records behind the replication source (0 on a primary)"
    (fun r -> r.Metrics.lag_records);
  repl_gauge ~name:"expirel_repl_clock_lag_ticks"
    ~help:"Logical-time distance to the replication source's clock"
    (fun r -> r.Metrics.clock_lag);
  repl_gauge ~name:"expirel_repl_followers"
    ~help:"Live replication sessions served (primary side)"
    (fun r -> r.Metrics.followers);
  repl_counter ~name:"expirel_repl_reconnects_total"
    ~help:"Times the replica's applier had to redial its primary"
    (fun r -> r.Metrics.reconnects);
  repl_counter ~name:"expirel_repl_snapshots_total"
    ~help:"Snapshot bootstraps received (replica) or served (primary)"
    (fun r -> r.Metrics.bootstraps);
  repl_counter ~name:"expirel_repl_records_total"
    ~help:"Log records applied (replica) or shipped (primary)"
    (fun r -> r.Metrics.records_shipped);
  (* Plan-cache effectiveness, polled from the interpreter's counters so
     it shows on the Prometheus page.
     [requests_total] (= hits + misses) exists so the hit-ratio health
     rule has a one-metric denominator. *)
  let cache_stat pick () =
    float_of_int (pick (Interp.plan_cache_stats t.interp))
  in
  Obs.Registry.custom reg ~name:"expirel_plan_cache_hits_total"
    ~help:"Plan-cache lookups served from the LRU"
    ~kind:Obs.Registry.Counter_kind (fun () ->
      [ ([], Obs.Registry.Counter_sample
            (Interp.plan_cache_stats t.interp).Interp.hits) ]);
  Obs.Registry.custom reg ~name:"expirel_plan_cache_misses_total"
    ~help:"Plan-cache lookups that had to lower and plan"
    ~kind:Obs.Registry.Counter_kind (fun () ->
      [ ([], Obs.Registry.Counter_sample
            (Interp.plan_cache_stats t.interp).Interp.misses) ]);
  Obs.Registry.custom reg ~name:"expirel_plan_cache_requests_total"
    ~help:"Plan-cache lookups (hits + misses)"
    ~kind:Obs.Registry.Counter_kind (fun () ->
      let s = Interp.plan_cache_stats t.interp in
      [ ([], Obs.Registry.Counter_sample (s.Interp.hits + s.Interp.misses)) ]);
  Obs.Registry.gauge_fun reg ~name:"expirel_plan_cache_entries"
    ~help:"Plans currently cached"
    (cache_stat (fun s -> s.Interp.entries));
  Obs.Registry.gauge_fun reg ~name:"expirel_standing_aggregates"
    ~help:"Repeated GROUP BY COUNT queries answered from standing state"
    (fun () -> float_of_int (fst (Interp.standing_aggregates t.interp)));
  Obs.Registry.gauge_fun reg ~name:"expirel_standing_groups"
    ~help:"Groups held by every standing GROUP BY COUNT"
    (fun () -> float_of_int (snd (Interp.standing_aggregates t.interp)));
  (* Sketch observability: one sample per sketch the executor has
     built, labelled by the sketch's display name (e.g.
     "approx_count(0.01)").  The Observatory is process-global and
     mutex-guarded, so polling it at exposition time is safe without
     the database lock. *)
  Obs.Registry.custom reg ~name:"expirel_sketch_memory_bytes"
    ~help:"Resident bytes per sketch kind last built by an \
           APPROX_COUNT/SAMPLE query"
    ~kind:Obs.Registry.Gauge_kind (fun () ->
      List.map
        (fun (name, (bytes, _)) ->
          ([ ("sketch", name) ],
           Obs.Registry.Gauge_sample (float_of_int bytes)))
        (Expirel_sketch.Observatory.snapshot ()));
  Obs.Registry.custom reg ~name:"expirel_sketch_live_estimate"
    ~help:"Estimated live cardinality per sketch kind at the time it \
           was last queried"
    ~kind:Obs.Registry.Gauge_kind (fun () ->
      List.map
        (fun (name, (_, est)) ->
          ([ ("sketch", name) ], Obs.Registry.Gauge_sample est))
        (Expirel_sketch.Observatory.snapshot ()));
  (* Executor observability: process-global totals the executor
     records once per query (Vec_stats, mutex-guarded like the sketch
     Observatory, so exposition-time polling needs no database lock).  cut_skipped is the headline saving: expired rows
     never touched, skipped by chunk pruning and binary-search cuts. *)
  let vexec_counter ~name ~help pick =
    Obs.Registry.custom reg ~name ~help ~kind:Obs.Registry.Counter_kind
      (fun () ->
        [ ( [],
            Obs.Registry.Counter_sample (pick (Obs.Vec_stats.snapshot ())) )
        ])
  in
  vexec_counter ~name:"expirel_vexec_batches_total"
    ~help:"Columnar batches consumed by the executor"
    (fun s -> s.Obs.Vec_stats.s_batches);
  vexec_counter ~name:"expirel_vexec_rows_total"
    ~help:"Batch rows the executor materialised or folded"
    (fun s -> s.Obs.Vec_stats.s_rows);
  vexec_counter ~name:"expirel_vexec_cut_skipped_total"
    ~help:"Expired rows skipped wholesale by chunk-level texp pruning \
           and binary-search live cuts (never touched per-row)"
    (fun s -> s.Obs.Vec_stats.s_cut_skipped);
  vexec_counter ~name:"expirel_vexec_rebatches_total"
    ~help:"Set-semantics operator answers (intersection, difference, \
           aggregates, sketches) re-entered into batch form for a \
           batch operator"
    (fun s -> s.Obs.Vec_stats.s_rebatches);
  (* The last HEALTH verdict, as a gauge (0 ok / 1 degraded /
     2 critical).  It reads the cached level rather than re-evaluating:
     evaluation runs [Registry.collect], which must not re-enter from
     inside a collect. *)
  Obs.Registry.gauge_fun reg ~name:"expirel_health_status"
    ~help:"Last HEALTH verdict (0 = ok, 1 = degraded, 2 = critical); \
           updated each time a HEALTH request is served" (fun () ->
      match t.last_health with
      | Obs.Health.Ok -> 0.
      | Obs.Health.Degraded -> 1.
      | Obs.Health.Critical -> 2.);
  (* The horizon: forward-looking expiration telemetry, polled at
     exposition time like the other expiration-domain gauges (METRICS
     runs as a reader).  Each bucket boundary is a binary-search cut
     of the table's texp-ordered run — O(buckets · log n) per table —
     so a scrape stays cheap on big tables.  Only the fan-out gauge
     walks the watches, so a scrape walks them once. *)
  Obs.Registry.custom reg ~name:"expirel_horizon_rows"
    ~help:"Forecast: live rows by ticks-to-expiry, per table (+Inf \
           also holds never-expiring rows)"
    ~kind:Obs.Registry.Histogram_kind (fun () ->
      List.map
        (fun tb ->
          ( [ ("table", tb.Obs.Horizon.name) ],
            Obs.Registry.Histogram_sample (Obs.Horizon.snapshot tb) ))
        (Interp.horizon_tables t.interp));
  Obs.Registry.gauge_fun reg ~name:"expirel_horizon_fanout_events"
    ~help:"Subscription events the next ADVANCE window will deliver"
    (fun () ->
      float_of_int (Interp.horizon t.interp).Obs.Horizon.fanout_events);
  Obs.Registry.gauge_fun reg ~name:"expirel_horizon_window_ticks"
    ~help:"The forecast window (ticks) used for fan-out and storm rules"
    (fun () -> float_of_int Obs.Horizon.default_window);
  Obs.Registry.custom reg ~name:"expirel_churn_rate"
    ~help:"Arrival vs expiration velocity, rows per tick over a \
           sliding window"
    ~kind:Obs.Registry.Gauge_kind (fun () ->
      let arrival, expiration = Interp.churn_rates t.interp in
      [ ([ ("kind", "arrival") ], Obs.Registry.Gauge_sample arrival);
        ([ ("kind", "expiration") ], Obs.Registry.Gauge_sample expiration)
      ]);
  (* The storm ratio's numerator and denominator, as plain gauges so
     the predictive health rules read them off the same collection. *)
  Obs.Registry.gauge_fun reg ~name:"expirel_horizon_expiring_soon"
    ~help:"Live rows expiring within the next horizon window" (fun () ->
      float_of_int
        (List.fold_left
           (fun acc tb ->
             acc + Obs.Horizon.expiring_within tb Obs.Horizon.default_window)
           0 (Interp.horizon_tables t.interp)));
  Obs.Registry.gauge_fun reg ~name:"expirel_live_rows"
    ~help:"Live rows across all tables (the storm ratio's denominator)"
    (fun () -> float_of_int (Database.live_rows db));
  Metrics.register_build_info (Metrics.registry metrics);
  t

let interp t = t.interp
let store t = t.store
let lock t = t.lock
let metrics t = t.metrics

let collect_metrics t =
  Rwlock.with_read t.lock (fun () ->
      Obs.Registry.collect (Metrics.registry t.metrics))

let trace_store t = t.trace_store

let port t =
  match t.bound_port with
  | Some p -> p
  | None -> invalid_arg "Server.port: not started"

let locked_state t f =
  Mutex.lock t.state_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_mutex) f

(* ---------- responding ---------- *)

(* Responses and pushed events share one outbound stream: the worker
   thread answers requests while the thread driving an ADVANCE pushes
   subscription events, so every write serialises on the connection's
   mutex.  A frame is counted before it is written, so a peer holding a
   reply reads counters that already include it. *)
let send_response t conn response =
  if conn.alive then begin
    Mutex.lock conn.write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.write_mutex)
      (fun () ->
        let payload = Wire.encode_response response in
        Metrics.add_bytes_out t.metrics (String.length payload + 4);
        try ignore (Frame.send conn.fd payload)
        with Frame.Closed | Frame.Timeout | Unix.Unix_error _ ->
          (* A peer that stopped reading loses its stream; never stall
             the server (an event push runs under the global write
             lock, bounded by SO_SNDTIMEO). *)
          conn.alive <- false)
  end

(* ---------- lock acquisition with a deadline ---------- *)

let acquire t ~write =
  let try_lock = if write then Rwlock.try_write_lock else Rwlock.try_read_lock in
  let deadline = Unix.gettimeofday () +. t.config.request_timeout in
  let rec go () =
    if try_lock t.lock then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 2e-4;
      go ()
    end
  in
  go ()

let release t ~write =
  if write then Rwlock.write_unlock t.lock else Rwlock.read_unlock t.lock

(* Runs [f] holding the lock, or answers [Timeout] when the lock does
   not come free within the request deadline.  On a traced request the
   wait is a [rwlock_wait] span. *)
let with_lock t ~write ?trace f =
  if not (Obs.Trace.span trace rwlock_wait_span (fun () -> acquire t ~write))
  then
    Wire.Err
      { code = Wire.Timeout;
        message =
          Printf.sprintf "no lock within %gs" t.config.request_timeout
      }
  else Fun.protect ~finally:(fun () -> release t ~write) f

(* Statements with no effect on any state may share the lock; everything
   else — including SHOW VIEW, which refreshes an expired view in place —
   serialises. *)
let is_read_only = function
  | Ast.Query _ | Ast.Show_tables | Ast.Show_views | Ast.Show_time
  | Ast.Show_horizon _ | Ast.Show_triggers | Ast.Show_constraints
  | Ast.Explain _ | Ast.Explain_analyze _ -> true
  | Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _
  | Ast.Drop_index _ | Ast.Insert _ | Ast.Delete _
  | Ast.Advance_to _ | Ast.Tick _ | Ast.Vacuum | Ast.Checkpoint
  | Ast.Create_view _ | Ast.Show_view _ | Ast.Create_trigger _
  | Ast.Drop_trigger _ | Ast.Create_constraint _ | Ast.Drop_constraint _
  | Ast.Refresh_view _ ->
    false

(* What a read-only replica still executes: anything without state
   effects, plus the purely local housekeeping statements (VACUUM and
   CHECKPOINT touch no logical state the primary owns). *)
let replica_allows stmt =
  is_read_only stmt
  ||
  match stmt with
  | Ast.Vacuum | Ast.Checkpoint | Ast.Show_view _ -> true
  | _ -> false

(* ---------- request handlers ---------- *)

let wire_rows listing =
  List.map (fun (tuple, texp) -> (Tuple.to_list tuple, texp)) listing

let response_of_outcome = function
  | Interp.Msg m -> Wire.Ok_msg m
  | Interp.Rows { columns; listing; texp_e; recomputed; relation = _ } ->
    Wire.Rows
      { columns; rows = wire_rows (Lazy.force listing); texp_e; recomputed }

(* The one statement path: [want] of a parsed statement, answered by
   the interpreter under the lock the statement's kind needs.  [reply]
   maps the answer before the lock is released; a statement error is
   the interpreter's text, whichever [want] asked. *)
let handle_statement ?trace ?text t want stmt ~reply =
  if t.config.read_only && not (replica_allows stmt) then
    Wire.Err
      { code = Wire.Exec_error;
        message = "read-only replica: writes go to the primary"
      }
  else
    with_lock t ~write:(not (is_read_only stmt)) ?trace (fun () ->
        match Interp.run ?trace ?text want t.interp stmt with
        | Ok answer -> reply answer
        | Error message -> Wire.Err { code = Wire.Exec_error; message })

(* Every statement request is traced: parse -> rwlock wait ->
   interpreter stages (lower, eval with per-operator spans, storage).
   The finished trace feeds the stage/operator histograms and the
   trace store, which SLOW ranks by duration, whether the statement
   succeeded or failed — failing statements are exactly the ones worth
   finding there.  When the request carried a trace context ([Exec_traced],
   [Shard_exec]), the spans record under the caller's trace id with the
   caller's span as their root parent, so a fan-out request yields one
   cross-node trace. *)
let traced t ~ctx ~sql f =
  let tr =
    match ctx with
    | Some ctx -> Wire.trace_of_ctx ctx
    | None -> Obs.Trace.create ()
  in
  let trace = Some tr in
  let response =
    Wire.parsing
      (fun sql ->
        Obs.Trace.span trace parse_span (fun () -> Interp.parse t.interp sql))
      sql (f trace)
  in
  Metrics.observe_trace t.metrics tr;
  Obs.Trace_store.finish t.trace_store ~node:t.config.node_name ~name:sql tr;
  response

(* ---------- held answers ---------- *)

(* Presentation order is tuple order only without ORDER BY and LIMIT:
   then the answer's rows are its relation's, and a delta in tuple
   order patches them. *)
let holdable = function
  | Ast.Query { order_by = []; limit = None; _ } -> true
  | _ -> false

(* Every change to a connection's held answers moves the gauge by what
   it did to their number (an insert over capacity evicts one). *)
let update_held t conn f =
  let before = Lru.length conn.held in
  f conn.held;
  Metrics.add_held_answers t.metrics (Lru.length conn.held - before)

(* [copy] held for [sql] under the connection's next version. *)
let keep t conn sql copy =
  conn.last_version <- conn.last_version + 1;
  let version = conn.last_version in
  update_held t conn (fun h -> Lru.set h sql { version; copy });
  version

(* The reply to a holdable query on a [Statement] request.  A delta
   goes out when the connection holds the version the client names and
   fewer than half the answer's rows changed since; it is built from
   the diff alone, without listing the answer.  Otherwise the whole
   answer goes out under a fresh version.  An answer too small to hold
   goes out as plain [Rows], and the connection forgets the text.  A
   change adds at most one row, so a delta needs fewer changes than the
   held answer has rows: the diff gives up there. *)
let hold t conn ~sql ~held (outcome : Interp.outcome) =
  match outcome with
  | Interp.Msg _ -> response_of_outcome outcome
  | Interp.Rows { columns; relation; listing; texp_e; recomputed } ->
    let delta =
      match (held, Lru.find conn.held sql) with
      | Some base, Some { version; copy = Answer { answer; rows } } when version = base -> (
        match Relation.diff ~limit:(rows - 1) answer relation with
        | Some (upserts, removed, rows)
          when rows >= Wire.held_min_rows
               && 2 * (List.length upserts + List.length removed) < rows ->
          Some (base, upserts, removed, rows)
        | Some _ | None -> None)
      | _ -> None
    in
    let keep rows body =
      let version = keep t conn sql (Answer { answer = relation; rows }) in
      Wire.Held_rows { version; body }
    in
    match delta with
    | Some (base, upserts, removed, rows) ->
      Metrics.incr_held_reply t.metrics ~delta:true;
      keep rows
        (Wire.Held_delta
           { base;
             columns;
             upserts = wire_rows upserts;
             removed = List.map Tuple.to_list removed;
             texp_e;
             recomputed
           })
    | None ->
      let listing = Lazy.force listing in
      let rows = List.length listing in
      if rows < Wire.held_min_rows then begin
        update_held t conn (fun h -> Lru.remove h sql);
        response_of_outcome outcome
      end
      else begin
        Metrics.incr_held_reply t.metrics ~delta:false;
        keep rows
          (Wire.Held_whole
             { columns; rows = wire_rows listing; texp_e; recomputed })
      end

(* The groups of a [Want_agg] read.  A kept read ([held] names a
   version) answered from a standing entry goes out under a fresh
   version: the groups changed since, when the connection holds the
   named version, else every group.  Any two standings diff exactly: an
   evicted or rebuilt entry shares no members record with the groups
   held, so the diff names every group and marks each gone one
   slice-less.  A delta is never longer than the whole answer and the
   reader keeps the groups anyway, so no size rule applies.  A kept
   read answered without an entry carries no version, and the
   connection forgets the text.  A stateless read touches no held
   answer. *)
let hold_groups t conn ~sql ~held (columns, groups, child_texp) =
  let body groups held = Wire.Body_agg { columns; child_texp; groups; held } in
  match (held, (groups : Interp.agg_groups)) with
  | None, Condensed groups -> body groups None
  | None, Standing st -> body (Partial_agg.standing_partial st) None
  | Some _, Condensed groups ->
    update_held t conn (fun h -> Lru.remove h sql);
    body groups None
  | Some base, Standing st ->
    let delta =
      match Lru.find conn.held sql with
      | Some { version; copy = Groups groups } when version = base ->
        Some (Partial_agg.standing_diff groups st)
      | Some _ | None -> None
    in
    let version = keep t conn sql (Groups st) in
    Metrics.incr_held_reply t.metrics ~delta:(Option.is_some delta);
    (match delta with
     | Some changed -> body changed (Some { Wire.version; full = false })
     | None -> body (Partial_agg.standing_partial st) (Some { Wire.version; full = true }))

(* [conn] is the connection a [Statement] came on; [Exec] and
   [Exec_traced] hold nothing. *)
let handle_exec ?ctx ?conn ?held t sql =
  traced t ~ctx ~sql (fun trace stmt ->
      let reply =
        match conn with
        | Some conn when holdable stmt ->
          fun outcome ->
            Obs.Trace.span trace held_span (fun () -> hold t conn ~sql ~held outcome)
        | Some _ | None -> response_of_outcome
      in
      handle_statement ?trace ~text:sql t Interp.Answer stmt ~reply)

let strip_statement s =
  let s = String.trim s in
  if String.length s > 0 && s.[String.length s - 1] = ';' then
    String.trim (String.sub s 0 (String.length s - 1))
  else s

let wire_event = function
  | Subscription.Row_expired { subscription; tuple; at } ->
    Wire.Row_expired { subscription; row = Tuple.to_list tuple; at }
  | Subscription.Row_appeared { subscription; tuple; texp; at } ->
    Wire.Row_appeared { subscription; row = Tuple.to_list tuple; texp; at }
  | Subscription.Refreshed { subscription; at } ->
    Wire.Refreshed { subscription; at }

(* The watch is the interpreter's; the connection owns its name and
   pushes its events.  A watch a replica's shipped DROP TABLE ended may
   leave its name in its old owner's list: a new subscriber of the name
   takes it over, so that owner cannot tear the new watch down. *)
let handle_subscribe t conn ~name ~query =
  Wire.parsing Parser.parse_statement (strip_statement query) @@ fun stmt ->
  with_lock t ~write:true (fun () ->
      match
        Interp.subscribe t.interp ~name stmt (fun event ->
            send_response t conn (Wire.Event (wire_event event));
            Metrics.incr_events_pushed t.metrics)
      with
      | Ok () ->
        locked_state t (fun () ->
            Hashtbl.iter
              (fun _ c -> c.owned_subs <- List.filter (( <> ) name) c.owned_subs)
              t.conns);
        conn.owned_subs <- name :: conn.owned_subs;
        Wire.Ok_msg (Printf.sprintf "subscribed %s" name)
      | Error message -> Wire.Err { code = Wire.Exec_error; message })

let handle_unsubscribe t conn name =
  if not (List.mem name conn.owned_subs) then
    Wire.Err
      { code = Wire.Exec_error;
        message = Printf.sprintf "subscription %s is not owned by this connection" name
      }
  else
    with_lock t ~write:true (fun () ->
        ignore (Interp.unsubscribe t.interp name);
        conn.owned_subs <- List.filter (fun n -> n <> name) conn.owned_subs;
        Wire.Ok_msg (Printf.sprintf "unsubscribed %s" name))

(* Rules read the same collection the Prometheus page renders, so the
   evaluation runs as a reader for the same reason METRICS does: polled
   gauges walk live table/view state. *)
let handle_health t =
  with_lock t ~write:false (fun () ->
      let collected = Obs.Registry.collect (Metrics.registry t.metrics) in
      let report = Obs.Health.evaluate t.config.health_rules collected in
      t.last_health <- report.Obs.Health.level;
      Wire.Health_reply report)

(* ---------- shard mode (coordinator-facing RPCs) ---------- *)

let shard_identity t = locked_state t (fun () -> t.shard)

(* The whole-partition texp summary the coordinator's pruning feeds on:
   each table's live count and live min/max texp, read from the ends of
   its texp-ordered run — O(log n) per table, no row walked.  Caller
   holds the (read or write) lock. *)
let partition_summary t =
  let db = Interp.database t.interp in
  let tau = Database.now db in
  List.fold_left
    (fun (acc : Wire.partition_texp) name ->
      let table = Database.table_exn db name in
      match Table.live_texp_range table ~tau with
      | None -> acc
      | Some (lo, hi) ->
        let n = Table.live_estimate table ~tau in
        if acc.live_rows = 0 then
          { Wire.live_rows = n; min_texp = lo; max_texp = hi }
        else
          { Wire.live_rows = acc.live_rows + n;
            min_texp = Time.min acc.min_texp lo;
            max_texp = Time.max acc.max_texp hi
          })
    { Wire.live_rows = 0; min_texp = Time.infinity; max_texp = Time.infinity }
    (Database.table_names db)

(* [self_id] may be absent from [map]: that is how a leaving shard
   learns the map that evicts it — ownership then assigns every local
   row elsewhere, so the drain (extract / purge) moves everything. *)
let handle_shard_install t ~map ~self_id =
  if self_id < 0 then
    Wire.Err
      { code = Wire.Exec_error;
        message = Printf.sprintf "bad shard id %d" self_id
      }
  else
    locked_state t (fun () ->
        match t.shard with
        | Some { installed_map; _ }
          when installed_map.Wire.map_version > map.Wire.map_version ->
          Wire.Err
            { code = Wire.Exec_error;
              message =
                Printf.sprintf "stale shard map v%d (v%d is installed)"
                  map.Wire.map_version installed_map.Wire.map_version
            }
        | _ ->
          t.shard <- Some { Wire.installed_map = map; self_id };
          Wire.Ok_msg
            (Printf.sprintf "installed shard map v%d as shard %d"
               map.Wire.map_version self_id))

let handle_shard_ping t =
  with_lock t ~write:false (fun () ->
      let shard_id, pong_map_version =
        locked_state t (fun () ->
            match t.shard with
            | Some s -> (s.Wire.self_id, s.Wire.installed_map.Wire.map_version)
            | None -> (-1, 0))
      in
      Wire.Shard_pong
        { shard_id;
          pong_map_version;
          now = Database.now (Interp.database t.interp);
          partition = partition_summary t
        })

(* A statement issued by a coordinator, traced like any EXEC so a
   fan-out shows up as one cross-node trace, and answered on the one
   statement path whatever its [want].  The lock is taken once: the
   [want] body and the partition summary the reply piggybacks read one
   state, so a write's reply reports the partition it left behind and
   no second wait can turn an applied write into a timeout. *)
let handle_shard_exec t conn ~sql ~ctx ~want =
  traced t ~ctx ~sql @@ fun trace stmt ->
  let shard want body =
    handle_statement ?trace ~text:sql t want stmt ~reply:(fun answer ->
        Wire.Shard_reply { partition = partition_summary t; body = body answer })
  in
  match (want : Wire.want) with
  | Want_rows ->
    shard Interp.Answer (function
      | Interp.Rows { columns; listing; texp_e; recomputed; relation = _ } ->
        Wire.Body_rows
          { columns; rows = wire_rows (Lazy.force listing); texp_e; recomputed }
      | Interp.Msg message -> Wire.Body_ack message)
  | Want_agg None -> shard (Interp.Agg_partial false) (hold_groups t conn ~sql ~held:None)
  | Want_agg (Some v as held) ->
    shard (Interp.Agg_partial (v <> 0)) (fun answer ->
        Obs.Trace.span trace held_span (fun () -> hold_groups t conn ~sql ~held answer))
  | Want_sketch ->
    shard Interp.Sketch_partial (fun (columns, sketch) ->
        Wire.Body_sketch
          { columns; payload = Expirel_sketch.Any.to_string sketch })

let first_column tuple =
  match Tuple.to_list tuple with
  | [] -> None
  | key :: _ -> Some key

let handle_extract_moving t table =
  match shard_identity t with
  | None ->
    Wire.Err { code = Wire.Exec_error; message = "no shard map installed" }
  | Some { installed_map = map; self_id } ->
    with_lock t ~write:false (fun () ->
        let db = Interp.database t.interp in
        match Database.table db table with
        | None ->
          Wire.Err
            { code = Wire.Exec_error; message = "unknown table " ^ table }
        | Some _ ->
          let moves = Hashtbl.create 4 in
          Relation.fold
            (fun tuple texp () ->
              match first_column tuple with
              | None -> ()
              | Some key ->
                let owner = Wire.shard_owner map key in
                if owner <> self_id then begin
                  let rows =
                    try Hashtbl.find moves owner with Not_found -> []
                  in
                  Hashtbl.replace moves owner
                    ((Tuple.to_list tuple, texp) :: rows)
                end)
            (Database.snapshot db table) ();
          Wire.Moved_rows
            (List.sort compare
               (Hashtbl.fold
                  (fun owner rows acc -> (owner, List.rev rows) :: acc)
                  moves [])))

let refuse_on_replica t k =
  if t.config.read_only then
    Wire.Err
      { code = Wire.Exec_error;
        message = "read-only replica: rebalance writes go to the primary"
      }
  else k ()

(* The batch is validated whole before any row is written, so a row
   the table refuses (a wrong arity) answers an error and ingests
   nothing. *)
let handle_ingest_rows t ~table ~ingest =
  refuse_on_replica t @@ fun () ->
  with_lock t ~write:true (fun () ->
      let db = Interp.database t.interp in
      match Database.table db table with
      | None ->
        Wire.Err
          { code = Wire.Exec_error; message = "unknown table " ^ table }
      | Some _ ->
        let now = Database.now db in
        (* A row already expired at this clock stays dead: moving a
           tuple between shards must not resurrect it. *)
        let records =
          List.filter_map
            (fun (values, texp) ->
              if Time.(texp > now) then
                Some (Wal.Insert { table; tuple = Tuple.of_list values; texp })
              else None)
            ingest
        in
        (match List.iter (Database.validate db) records with
         | exception Invalid_argument message ->
           Wire.Err { code = Wire.Exec_error; message }
         | () ->
           List.iter (Interp.write t.interp) records;
           let dropped = List.length ingest - List.length records in
           let message =
             Printf.sprintf "ingested %d row(s) into %s%s"
               (List.length records) table
               (if dropped > 0 then
                  Printf.sprintf " (%d already expired)" dropped
                else "")
           in
           Wire.Shard_reply
             { partition = partition_summary t; body = Wire.Body_ack message }))

let handle_purge_moved t table =
  refuse_on_replica t @@ fun () ->
  match shard_identity t with
  | None ->
    Wire.Err { code = Wire.Exec_error; message = "no shard map installed" }
  | Some { installed_map = map; self_id } ->
    with_lock t ~write:true (fun () ->
        let db = Interp.database t.interp in
        match Database.table db table with
        | None ->
          Wire.Err
            { code = Wire.Exec_error; message = "unknown table " ^ table }
        | Some _ ->
          let doomed =
            Relation.fold
              (fun tuple _ acc ->
                match first_column tuple with
                | Some key when Wire.shard_owner map key <> self_id ->
                  tuple :: acc
                | Some _ | None -> acc)
              (Database.snapshot db table) []
          in
          List.iter
            (fun tuple -> Interp.write t.interp (Wal.Delete { table; tuple }))
            doomed;
          Wire.Shard_reply
            { partition = partition_summary t;
              body =
                Wire.Body_ack
                  (Printf.sprintf "purged %d moved row(s) from %s"
                     (List.length doomed) table)
            })

let handle_request t conn = function
  | Wire.Exec sql -> handle_exec t sql
  | Wire.Exec_traced { sql; ctx } -> handle_exec ~ctx t sql
  | Wire.Statement { sql; ctx; held } -> handle_exec ?ctx ~conn ?held t sql
  | Wire.Subscribe { name; query } -> handle_subscribe t conn ~name ~query
  | Wire.Unsubscribe name -> handle_unsubscribe t conn name
  | Wire.Metrics ->
    (* The exposition polls gauges that walk live table/view state, so
       it runs as a reader. *)
    with_lock t ~write:false (fun () ->
        Wire.Metrics_reply (Metrics.prometheus t.metrics))
  | Wire.Slow_queries n ->
    Wire.Traces_reply (Obs.Trace_store.slowest t.trace_store (max 0 n))
  | Wire.Trace_recent n ->
    Wire.Traces_reply (Obs.Trace_store.recent t.trace_store (max 0 n))
  | Wire.Health -> handle_health t
  | Wire.Horizon table ->
    (* Like METRICS: the forecast walks live table and watch state, so
       it runs as a reader. *)
    with_lock t ~write:false (fun () ->
        match Interp.guard (fun () -> Interp.horizon ?table t.interp) with
        | Ok report -> Wire.Horizon_reply report
        | Error message -> Wire.Err { code = Wire.Exec_error; message })
  | Wire.Shard_map_req -> Wire.Shard_map_reply (shard_identity t)
  | Wire.Shard_install { map; self_id } -> handle_shard_install t ~map ~self_id
  | Wire.Shard_exec { sql; ctx; want } -> handle_shard_exec t conn ~sql ~ctx ~want
  | Wire.Shard_ping -> handle_shard_ping t
  | Wire.Extract_moving table -> handle_extract_moving t table
  | Wire.Ingest_rows { table; ingest } -> handle_ingest_rows t ~table ~ingest
  | Wire.Purge_moved table -> handle_purge_moved t table
  | Wire.Ping -> Wire.Pong
  | Wire.Quit -> Wire.Bye
  | Wire.Replicate _ ->
    (* Intercepted in [serve_conn]; reaching here means the handshake
       arrived on a server that cannot serve it. *)
    Wire.Err
      { code = Wire.Exec_error;
        message = "this server has no durable store: nothing to replicate"
      }

(* ---------- replication sessions (primary side) ---------- *)

let heartbeat_interval = 0.25

(* How long the tail poll sleeps when the log has nothing new.  Small
   enough that followers see a mutation within a few milliseconds. *)
let tail_poll_interval = 0.002

(* A REPLICATE handshake turns the worker into a log-shipping session:
   one initial shipment (snapshot for cold/stranded followers, records
   otherwise), then tail-following with heartbeats while idle.  Reads of
   the store happen under the read lock, so shipping never tears a
   mutation in progress; the stream ends when the follower hangs up or
   the server drains. *)
let serve_replication t conn store ~replica_id ~position ~ctx =
  locked_state t (fun () -> Hashtbl.replace t.followers replica_id ());
  (* When the handshake carried a trace context, the initial shipment —
     the expensive, user-visible part of joining — records as a span
     under the follower's trace.  The tail-following loop is unbounded,
     so the trace finishes (into this node's trace store) right after
     that first shipment rather than when the session ends. *)
  let tr = Option.map Wire.trace_of_ctx ctx in
  let finish_trace () =
    Option.iter
      (fun tr ->
        Obs.Trace_store.finish t.trace_store ~node:t.config.node_name
          ~name:(Printf.sprintf "replicate %s" replica_id)
          tr)
      tr
  in
  Fun.protect
    ~finally:(fun () ->
      locked_state t (fun () -> Hashtbl.remove t.followers replica_id))
    (fun () ->
      let cursor = ref position in
      let ship () =
        Rwlock.with_read t.lock (fun () -> Durable.ship_from store !cursor)
      in
      let send_shipment = function
        | Durable.Snapshot { position = p; records } ->
          cursor := p;
          locked_state t (fun () ->
              t.snapshots_served <- t.snapshots_served + 1);
          send_response t conn (Wire.Repl_snapshot { position = p; records })
        | Durable.Records [] -> ()
        | Durable.Records records ->
          let from_position = !cursor in
          cursor := from_position + List.length records;
          locked_state t (fun () ->
              t.records_shipped <- t.records_shipped + List.length records);
          send_response t conn (Wire.Repl_records { from_position; records })
      in
      match
        Obs.Trace.span tr ship_span
          (fun () ->
            let r = ship () in
            Obs.Trace.label tr replica_key replica_id;
            r)
      with
      | Error message ->
        finish_trace ();
        send_response t conn (Wire.Err { code = Wire.Exec_error; message })
      | Ok initial ->
        send_shipment initial;
        finish_trace ();
        let last_beat = ref (Unix.gettimeofday ()) in
        while conn.alive && not t.shutting_down do
          if Durable.position store > !cursor then begin
            (match ship () with
             | Ok shipment -> send_shipment shipment
             | Error message ->
               send_response t conn
                 (Wire.Err { code = Wire.Exec_error; message });
               conn.alive <- false);
            last_beat := Unix.gettimeofday ()
          end
          else begin
            let now = Unix.gettimeofday () in
            if now -. !last_beat >= heartbeat_interval then begin
              send_response t conn
                (Wire.Repl_heartbeat
                   { position = Durable.position store; now = Durable.now store });
              last_beat := now
            end
            else Thread.delay tail_poll_interval
          end
        done)

(* ---------- applying a shipped stream (replica side) ---------- *)

let apply_records t records =
  Rwlock.with_write t.lock (fun () -> Interp.apply_records t.interp records)

let install_snapshot t ~position records =
  Rwlock.with_write t.lock (fun () ->
      Interp.install_snapshot t.interp ~position records)

(* ---------- connection lifecycle ---------- *)

let drop_subscriptions t conn =
  match conn.owned_subs with
  | [] -> ()
  | names ->
    Rwlock.with_write t.lock (fun () ->
        List.iter (fun name -> ignore (Interp.unsubscribe t.interp name)) names);
    conn.owned_subs <- []

let close_conn t conn =
  drop_subscriptions t conn;
  Metrics.add_held_answers t.metrics (-Lru.length conn.held);
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  locked_state t (fun () ->
      Hashtbl.remove t.conns conn.id;
      Hashtbl.remove t.threads conn.id);
  Metrics.connection_closed t.metrics

let rec serve_conn t conn =
  match Frame.recv conn.fd with
  | exception (Frame.Closed | Frame.Timeout | Unix.Unix_error _) -> ()
  | exception Frame.Oversized len ->
    send_response t conn
      (Wire.Err
         { code = Wire.Proto_error;
           message = Printf.sprintf "frame of %d bytes exceeds max %d" len Frame.max_frame
         });
    Metrics.incr_errors t.metrics
  | payload, bytes ->
    Metrics.add_bytes_in t.metrics bytes;
    let started = Unix.gettimeofday () in
    match Wire.decode_request payload with
    | Ok (Wire.Replicate { replica_id; position; ctx }) when t.store <> None ->
      (* The connection becomes a one-way stream; it never returns to
         request/response. *)
      Metrics.incr_requests t.metrics;
      (match t.store with
       | Some store -> serve_replication t conn store ~replica_id ~position ~ctx
       | None -> ())
    | decoded ->
      let response, keep_going =
        match decoded with
        | Error message ->
          (* The stream may be desynchronised: answer, then close.  A
             peer speaking another protocol version gets the typed
             mismatch (the [Err] layout is stable across versions) so it
             can diagnose rather than guess. *)
          let code =
            match Wire.payload_version payload with
            | Some v when v <> Wire.version -> Wire.Version_mismatch
            | Some _ | None -> Wire.Proto_error
          in
          (Wire.Err { code; message }, false)
        | Ok Wire.Quit -> (Wire.Bye, false)
        | Ok request -> (handle_request t conn request, true)
      in
      Metrics.incr_requests t.metrics;
      (match response with
       | Wire.Err _ -> Metrics.incr_errors t.metrics
       | _ -> ());
      Metrics.observe_latency t.metrics
        ~seconds:(Unix.gettimeofday () -. started);
      send_response t conn response;
      if keep_going && conn.alive && not t.shutting_down then serve_conn t conn

let worker t conn =
  (try serve_conn t conn with _ -> ());
  close_conn t conn

let refuse t fd =
  let conn = new_conn ~id:(-1) fd in
  send_response t conn
    (Wire.Err
       { code = Wire.Overloaded;
         message =
           Printf.sprintf "connection cap %d reached" t.config.max_connections
       });
  Metrics.incr_errors t.metrics;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let rec accept_loop t listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t listen_fd
  | exception Unix.Unix_error _ -> ()  (* listener closed: shutdown *)
  | fd, _ ->
    if t.shutting_down then (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      (* Never let a peer that stopped reading block a worker (or an
         event push holding the write lock) forever. *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.request_timeout
       with Unix.Unix_error _ -> ());
      let accepted =
        locked_state t (fun () ->
            if Hashtbl.length t.conns >= t.config.max_connections then None
            else begin
              t.next_id <- t.next_id + 1;
              let conn = new_conn ~id:t.next_id fd in
              Hashtbl.replace t.conns conn.id conn;
              Some conn
            end)
      in
      (match accepted with
       | None -> refuse t fd
       | Some conn ->
         Metrics.connection_opened t.metrics;
         let thread = Thread.create (fun () -> worker t conn) () in
         locked_state t (fun () -> Hashtbl.replace t.threads conn.id thread));
      accept_loop t listen_fd
    end

let start t =
  if t.acceptor <> None then invalid_arg "Server.start: already started";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     let addr = Unix.inet_addr_of_string t.config.host in
     Unix.bind fd (Unix.ADDR_INET (addr, t.config.port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (match Unix.getsockname fd with
   | Unix.ADDR_INET (_, p) -> t.bound_port <- Some p
   | Unix.ADDR_UNIX _ -> ());
  t.listen_fd <- Some fd;
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t fd) ())

let wait t =
  match t.acceptor with
  | Some thread -> Thread.join thread
  | None -> ()

let stop t =
  t.shutting_down <- true;
  (match t.listen_fd with
   | Some fd ->
     t.listen_fd <- None;
     (* A plain close does not wake a thread blocked in accept(2);
        shutting the socket down first does (accept fails with EINVAL). *)
     (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
     (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  (match t.acceptor with
   | Some thread ->
     t.acceptor <- None;
     Thread.join thread
   | None -> ());
  (* Wake workers blocked reading the next request; in-flight requests
     are executing (not blocked in recv) and drain normally. *)
  let conns = locked_state t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []) in
  List.iter
    (fun conn ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  let threads =
    locked_state t (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [])
  in
  List.iter Thread.join threads;
  match t.store with
  | Some store when not t.store_closed ->
    t.store_closed <- true;
    Durable.close store
  | Some _ | None -> ()
