open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx
module Obs = Expirel_obs

(* The span names and label keys this module records, interned once. *)
let rwlock_wait_span = Obs.Trace.name "rwlock_wait"
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
              statement shapes defeat the LRU)"
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

type t = {
  config : config;
  interp : Interp.t;
  store : Durable.t option;
  lock : Rwlock.t;
  loop : Loop.t;
  state_mutex : Mutex.t;  (* guards owners and followers *)
  owners : (string, int) Hashtbl.t;  (* watch name -> its connection's id *)
  followers : (string, unit) Hashtbl.t;  (* live replication sessions *)
  boot_id : string;  (* drawn once: a heartbeat's proof of no restart *)
  mutable records_shipped : int;
  mutable snapshots_served : int;
  mutable store_closed : bool;
  mutable summary : summary option;  (* the last partition summary *)
}

(* A partition summary and the state it was read at: the clock, the
   catalog generation and each table's generation, in [table_names]
   order.  A physical row change bumps its table's generation, and a
   table created or dropped the catalog's. *)
and summary = {
  now : Time.t;
  catalog : int;
  tables : int list;
  partition : Wire.partition_texp;
}

(* Servers created so far in this process: the tests restart a shard
   in process, and its new boot id must still differ. *)
let boots = Atomic.make 0

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
  let loop =
    Loop.create ~node_name:config.node_name ~max_connections:config.max_connections
      ~request_timeout:config.request_timeout ~health_rules:config.health_rules ()
  in
  let metrics = Loop.metrics loop in
  (* Every expiration the storage counts from here on shows up in
     METRICS (a durable node's replay at open does not), labeled by how
     it was removed: under the eager policy by the clock advance at the
     tuple's expiration time, under the lazy policy by the (late)
     vacuum. *)
  let expired_at_start = Database.expired_total db in
  Metrics.set_expirations metrics
    ~mode:
      (match config.policy with
       | Database.Eager -> `Eager
       | Database.Lazy -> `Lazy)
    (fun () -> Database.expired_total db - expired_at_start);
  let t =
    { config;
      interp;
      store;
      lock = Rwlock.create ();
      loop;
      state_mutex = Mutex.create ();
      owners = Hashtbl.create 4;
      followers = Hashtbl.create 4;
      boot_id =
        Obs.Trace.format_trace_id
          ~us:(Int64.of_float (Unix.gettimeofday () *. 1e6))
          ~pid:(Unix.getpid ()) ~seq:(Atomic.fetch_and_add boots 1);
      records_shipped = 0;
      snapshots_served = 0;
      store_closed = false;
      summary = None
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
     is served under the read lock — see [service]. *)
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
  let cache_counter ~name ~help pick =
    Obs.Registry.custom reg ~name ~help ~kind:Obs.Registry.Counter_kind (fun () ->
        [ ([], Obs.Registry.Counter_sample (pick (Interp.plan_cache_stats t.interp))) ])
  in
  cache_counter ~name:"expirel_plan_cache_hits_total"
    ~help:"Plan-cache lookups served from the LRU" (fun s -> s.Interp.hits);
  cache_counter ~name:"expirel_plan_cache_misses_total"
    ~help:"Plan-cache lookups that had to lower and plan" (fun s -> s.Interp.misses);
  cache_counter ~name:"expirel_plan_cache_requests_total"
    ~help:"Plan-cache lookups (hits + misses)" (fun s -> s.Interp.hits + s.Interp.misses);
  Obs.Registry.gauge_fun reg ~name:"expirel_plan_cache_entries"
    ~help:"Plans currently cached" (fun () ->
      float_of_int (Interp.plan_cache_stats t.interp).Interp.entries);
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
    (fun () -> float_of_int (Interp.fanout_forecast t.interp));
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
  t

let interp t = t.interp
let store t = t.store
let lock t = t.lock
let metrics t = Loop.metrics t.loop

let collect_metrics t =
  Rwlock.with_read t.lock (fun () ->
      Obs.Registry.collect (Metrics.registry (metrics t)))

let trace_store t = Loop.trace_store t.loop
let port t = Loop.port t.loop
let locked_state t f = Mutex.protect t.state_mutex f

(* ---------- lock acquisition with a deadline ---------- *)

(* Polls the [try_] forms: a polling writer never counts as waiting,
   so it gets no writer preference over overlapping readers. *)
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

(* Runs [f] holding the lock, or answers [timed_out] of a [Timeout]
   error when the lock does not come free within the request deadline.
   On a traced request the wait is a [rwlock_wait] span. *)
let guarded t ~write ?trace ~timed_out f =
  if not (Obs.Trace.span trace rwlock_wait_span (fun () -> acquire t ~write))
  then
    timed_out
      (Wire.Err
         { code = Wire.Timeout;
           message =
             Printf.sprintf "no lock within %gs" t.config.request_timeout
         })
  else Fun.protect ~finally:(fun () -> release t ~write) f

let with_lock t ~write ?trace f = guarded t ~write ?trace ~timed_out:Fun.id f

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

let exec_error message = Wire.Err { code = Wire.Exec_error; message }
let either = function Ok r | Error r -> r

(* The one statement path: [want] of a prepared statement, answered by
   the interpreter under the lock the statement's kind needs.  [reply]
   maps the answer before the lock is released; a statement error is
   the interpreter's text, whichever [want] asked. *)
let handle_statement ?trace t want prepared ~reply =
  let stmt = Interp.statement prepared in
  if t.config.read_only && not (replica_allows stmt) then
    Error (exec_error "read-only replica: writes go to the primary")
  else
    guarded t ~write:(not (is_read_only stmt)) ?trace ~timed_out:Result.error (fun () ->
        match Interp.run ?trace want t.interp prepared with
        | Ok answer -> Ok (reply answer)
        | Error message -> Error (exec_error message))

let wire_event = function
  | Subscription.Row_expired { subscription; tuple; at } ->
    Wire.Row_expired { subscription; row = Tuple.to_list tuple; at }
  | Subscription.Row_appeared { subscription; tuple; texp; at } ->
    Wire.Row_appeared { subscription; row = Tuple.to_list tuple; texp; at }
  | Subscription.Refreshed { subscription; at } ->
    Wire.Refreshed { subscription; at }

(* The watch is the interpreter's; the node keeps which connection owns
   its name, and that connection pushes its events.  A watch a
   replica's shipped DROP TABLE ended may leave its name behind: a new
   subscriber of the name takes it over, so its old owner cannot tear
   the new watch down. *)
let handle_subscribe t conn ~name ~query =
  Wire.parsing (fun q -> Interp.statement (Interp.prepare t.interp q)) query @@ fun stmt ->
  with_lock t ~write:true (fun () ->
      match
        Interp.subscribe t.interp ~name stmt (fun event ->
            Loop.send conn (Wire.Event (wire_event event));
            Metrics.incr_events_pushed (metrics t))
      with
      | Ok () ->
        locked_state t (fun () -> Hashtbl.replace t.owners name (Loop.id conn));
        Wire.Ok_msg (Printf.sprintf "subscribed %s" name)
      | Error message -> exec_error message)

let handle_unsubscribe t conn name =
  if locked_state t (fun () -> Hashtbl.find_opt t.owners name) <> Some (Loop.id conn)
  then exec_error (Printf.sprintf "subscription %s is not owned by this connection" name)
  else
    with_lock t ~write:true (fun () ->
        ignore (Interp.unsubscribe t.interp name);
        locked_state t (fun () -> Hashtbl.remove t.owners name);
        Wire.Ok_msg (Printf.sprintf "unsubscribed %s" name))

(* A closing connection's watches end with it. *)
let drop_subscriptions t conn =
  let id = Loop.id conn in
  let names =
    locked_state t (fun () ->
        let names =
          Hashtbl.fold (fun name owner acc -> if owner = id then name :: acc else acc) t.owners []
        in
        List.iter (Hashtbl.remove t.owners) names;
        names)
  in
  if names <> [] then
    Rwlock.with_write t.lock (fun () ->
        List.iter (fun name -> ignore (Interp.unsubscribe t.interp name)) names)

(* ---------- shard mode (coordinator-facing RPCs) ---------- *)

(* The whole-partition texp summary the coordinator's pruning feeds on:
   each table's live count and live min/max texp, read from the ends of
   its texp-ordered run — O(log n) per table, no row walked — and kept
   until the clock, the catalog or a table changes, so replies between
   writes reuse it.  Readers under the shared lock that recompute it
   concurrently store equal values.  Caller holds the (read or write)
   lock. *)
let partition_summary t =
  let db = Interp.database t.interp in
  let now = Database.now db and catalog = Database.generation db in
  let names = Database.table_names db in
  let tables = List.map (fun name -> Table.generation (Database.table_exn db name)) names in
  match t.summary with
  | Some s when Time.equal s.now now && s.catalog = catalog && List.equal Int.equal s.tables tables
    ->
    s.partition
  | Some _ | None ->
    let partition =
      List.fold_left
        (fun (acc : Wire.partition_texp) name ->
          let table = Database.table_exn db name in
          match Table.live_texp_range table ~tau:now with
          | None -> acc
          | Some (lo, hi) ->
            let n = Table.live_estimate table ~tau:now in
            if acc.live_rows = 0 then
              { Wire.live_rows = n; min_texp = lo; max_texp = hi }
            else
              { Wire.live_rows = acc.live_rows + n;
                min_texp = Time.min acc.min_texp lo;
                max_texp = Time.max acc.max_texp hi
              })
        { Wire.live_rows = 0; min_texp = Time.infinity; max_texp = Time.infinity }
        names
    in
    t.summary <- Some { now; catalog; tables; partition };
    partition

(* A node holds no cluster identity: the coordinator decides where
   every row lives, and tells a restart by the boot id. *)
let handle_shard_ping t =
  with_lock t ~write:false (fun () ->
      Wire.Shard_pong
        { boot_id = t.boot_id;
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
  Loop.traced t.loop ?ctx ~parse:(Interp.prepare t.interp) sql @@ fun trace stmt ->
  let shard want body =
    either
      (handle_statement ?trace t want stmt ~reply:(fun answer ->
           Wire.Shard_reply { partition = partition_summary t; body = body answer }))
  in
  match (want : Wire.want) with
  | Want_rows ->
    shard Interp.Answer (function
      | Interp.Rows { columns; listing; texp_e; recomputed; relation = _ } ->
        let rows = List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing) in
        Wire.Body_rows { columns; rows; texp_e; recomputed }
      | Interp.Msg message -> Wire.Body_ack message)
  | Want_agg None -> shard (Interp.Agg_partial false) (Loop.hold_groups conn ~sql ~held:None)
  | Want_agg (Some v as held) ->
    shard (Interp.Agg_partial (v <> 0)) (fun answer ->
        Obs.Trace.span trace held_span (fun () -> Loop.hold_groups conn ~sql ~held answer))
  | Want_sketch ->
    shard Interp.Sketch_partial (fun (columns, sketch) ->
        Wire.Body_sketch
          { columns; payload = Expirel_sketch.Any.to_string sketch })

(* A rebalance's one write, of rows the coordinator chose, under one
   write lock.  [add] is validated whole before any row is written, so
   a row the table refuses (a wrong arity) answers an error and writes
   nothing.  A row already expired at this clock stays dead: moving a
   tuple between shards must not resurrect it.  A [remove] tuple this
   node does not hold is skipped. *)
let handle_move_rows t ~table ~add ~remove =
  if t.config.read_only then
    exec_error "read-only replica: rebalance writes go to the primary"
  else
    with_lock t ~write:true @@ fun () ->
    let db = Interp.database t.interp in
    let now = Database.now db in
    let inserts =
      List.filter_map
        (fun (values, texp) ->
          if Time.(texp > now) then
            Some (Wal.Insert { table; tuple = Tuple.of_list values; texp })
          else None)
        add
    in
    match Database.table db table with
    | None -> exec_error ("unknown table " ^ table)
    | Some _ ->
      (match List.iter (Database.validate db) inserts with
       | exception Invalid_argument message -> exec_error message
       | () ->
         List.iter (Interp.write t.interp) inserts;
         let removed =
           List.fold_left
             (fun n values ->
               let delete = Wal.Delete { table; tuple = Tuple.of_list values } in
               if Database.applies db delete then begin
                 Interp.write t.interp delete;
                 n + 1
               end
               else n)
             0 remove
         in
         let expired = List.length add - List.length inserts in
         Wire.Shard_reply
           { partition = partition_summary t;
             body =
               Wire.Body_ack
                 (Printf.sprintf "%s: %d row(s) added%s, %d removed" table
                    (List.length inserts)
                    (if expired > 0 then Printf.sprintf " (%d already expired)" expired
                     else "")
                    removed)
           })

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
        Obs.Trace_store.finish (trace_store t) ~node:t.config.node_name
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
          Loop.send conn (Wire.Repl_snapshot { position = p; records })
        | Durable.Records [] -> ()
        | Durable.Records records ->
          let from_position = !cursor in
          cursor := from_position + List.length records;
          locked_state t (fun () ->
              t.records_shipped <- t.records_shipped + List.length records);
          Loop.send conn (Wire.Repl_records { from_position; records })
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
        Loop.send conn (exec_error message)
      | Ok initial ->
        send_shipment initial;
        finish_trace ();
        let last_beat = ref (Unix.gettimeofday ()) in
        let failed = ref false in
        while Loop.alive conn && not (!failed || Loop.stopping t.loop) do
          if Durable.position store > !cursor then begin
            (match ship () with
             | Ok shipment -> send_shipment shipment
             | Error message ->
               Loop.send conn (exec_error message);
               failed := true);
            last_beat := Unix.gettimeofday ()
          end
          else begin
            let now = Unix.gettimeofday () in
            if now -. !last_beat >= heartbeat_interval then begin
              Loop.send conn
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

(* ---------- the node behind the loop ---------- *)

(* Every request the loop leaves to the node. *)
let handle_other t conn = function
  | Wire.Subscribe { name; query } -> Some (handle_subscribe t conn ~name ~query)
  | Wire.Unsubscribe name -> Some (handle_unsubscribe t conn name)
  | Wire.Shard_exec { sql; ctx; want } -> Some (handle_shard_exec t conn ~sql ~ctx ~want)
  | Wire.Shard_ping -> Some (handle_shard_ping t)
  | Wire.Move_rows { table; add; remove } -> Some (handle_move_rows t ~table ~add ~remove)
  | Wire.Replicate { replica_id; position; ctx } ->
    (match t.store with
     | Some store ->
       (* The connection becomes a one-way stream for good. *)
       Metrics.incr_requests (metrics t);
       serve_replication t conn store ~replica_id ~position ~ctx;
       None
     | None -> Some (exec_error "this server has no durable store: nothing to replicate"))
  | Wire.Exec _ | Wire.Exec_traced _ | Wire.Statement _ | Wire.Metrics
  | Wire.Slow_queries _ | Wire.Trace_recent _ | Wire.Health | Wire.Horizon _
  | Wire.Ping | Wire.Quit ->
    Some (Wire.Err { code = Wire.Proto_error; message = "answered by the request loop" })

let service t =
  { Loop.parse = Interp.prepare t.interp;
    holdable = (fun p -> Loop.holdable (Interp.statement p));
    run =
      (fun trace _ prepared ->
        handle_statement ?trace t Interp.Answer prepared ~reply:Fun.id);
    (* The exposition polls gauges that walk live table/view state, so
       it runs as a reader; so does HEALTH, whose rules read the same
       collection, and HORIZON, whose forecast walks tables and
       watches. *)
    metrics =
      (fun () ->
        with_lock t ~write:false (fun () ->
            Wire.Metrics_reply (Metrics.prometheus (metrics t))));
    health =
      (fun () -> with_lock t ~write:false (fun () -> Wire.Health_reply (Loop.health t.loop)));
    horizon =
      (fun table ->
        with_lock t ~write:false (fun () ->
            match Interp.guard (fun () -> Interp.horizon ?table t.interp) with
            | Ok report -> Wire.Horizon_reply report
            | Error message -> exec_error message));
    traces = Obs.Trace_store.recent (trace_store t);
    other = handle_other t;
    closed = drop_subscriptions t
  }

let start t = Loop.start t.loop ~host:t.config.host ~port:t.config.port (service t)
let wait t = Loop.wait t.loop

let stop t =
  Loop.stop t.loop;
  match t.store with
  | Some store when not t.store_closed ->
    t.store_closed <- true;
    Durable.close store
  | Some _ | None -> ()
