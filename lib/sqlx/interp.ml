open Expirel_core
open Expirel_storage
open Expirel_exec
module Trace = Expirel_obs.Trace
module Horizon = Expirel_obs.Horizon

(* The span names and label keys the interpreter records, interned
   once. *)
let lower_span = Trace.name "lower"
let plan_span = Trace.name "plan"
let eval_span = Trace.name "eval"
let aggregate_span = Trace.name "op:aggregate"
let sketch_query_span = Trace.name "sketch-query"
let deliver_span = Trace.name "deliver"
let storage_span = Trace.name "storage"
let rows_key = Trace.name "rows"

(* A plain view keeps its plan's result, served with rows cut at the
   clock until its [texp(e)] passes (Theorem 2), then rerun.  A
   MAINTAINED view is an entry of the session's [maintained] registry,
   which every write and clock move keeps current. *)
type view =
  | Plain of {
      plan : Plan.compiled;
      columns : string list;
      mutable result : Eval.result;
    }
  | Kept of string list  (* the columns *)

(* A cached physical plan, valid for exactly one catalog generation:
   any DDL (CREATE/DROP TABLE, CREATE/DROP INDEX) bumps the database
   generation and thereby invalidates every entry at once without
   touching the cache. *)
type plan_entry = {
  p_generation : int;
  p_columns : string list;
  p_compiled : Plan.compiled;
  p_approx : Approx.spec option;
      (* present when the physical tree is wrapped in a sketch operator
         (APPROX_COUNT/SAMPLE): evaluation runs under a [sketch-query]
         trace span so profiles attribute the sketch fold *)
  p_literals : Value.t array;
      (* the literals of the request it was planned or rebound for: its
         constants are these very values *)
}

type prepared = plan_entry Statement_cache.prepared

type plan_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

type t = {
  db : Database.t;
  store : Durable.t option;
  views : (string, view) Hashtbl.t;
  constraints : Subscription.t;  (* CONSTRAINTs: own names, no pushes *)
  bounds : (string, Invariant.bounds) Hashtbl.t;  (* each constraint's *)
  watches : Subscription.t;
  maintained : Subscription.t;  (* MAINTAINED views: own names, no pushes *)
  cached : Subscription.t;
      (* repeated grouped COUNT queries, by verbatim text: an entry
         lives while its shape's plan does, in the statement cache and
         the catalog generation *)
  trigger_log : string Queue.t;
      (* the newest [trigger_log_capacity] firings, oldest first *)
  mutable triggers_dropped : int;  (* firings older than those *)
  statements : plan_entry Statement_cache.t;
      (* keyed by the statement's literal shape: a repeated statement,
         whatever its literals, skips the parser, then lowering and
         planning.  The server's rwlock admits concurrent readers, and
         readers mutate the cache (LRU recency, plans), [texts] and
         [cached], so those run under the cache's own lock, never held
         across lowering or evaluation *)
  texts : (string, string) Lru.t;
      (* grouped COUNT texts read through a cached plan, verbatim, each
         with its shape's key: a text read again while remembered gets
         a standing entry in [cached] named by the text.  The LRU's
         capacity bounds them; an evicted text's entry ends, and so do
         a shape's texts when the statement cache evicts the shape *)
  plan_hits : int Atomic.t;
  plan_misses : int Atomic.t;
  churn : Horizon.Churn.t;
      (* arrival vs expiration velocity, sampled whenever the logical
         clock moves (ADVANCE/TICK/VACUUM) and on horizon reads *)
}

let statement_capacity = 64

(* SHOW TRIGGERS keeps this many firings, the newest; it counts the
   older ones it dropped, so a long-running node's log stays bounded. *)
let trigger_log_capacity = 1_000

let create ?policy ?store () =
  let db =
    match store with
    | Some s -> Durable.database s
    | None -> Database.create ?policy ()
  in
  let cached = Subscription.create db in
  let forget text = ignore (Subscription.unsubscribe cached text) in
  let texts = Lru.create ~capacity:statement_capacity ~on_evict:forget () in
  { db;
    store;
    views = Hashtbl.create 8;
    constraints = Subscription.create db;
    bounds = Hashtbl.create 8;
    watches = Subscription.create db;
    maintained = Subscription.create db;
    cached;
    trigger_log = Queue.create ();
    triggers_dropped = 0;
    statements =
      Statement_cache.create ~capacity:statement_capacity
        ~on_evict:(fun key ->
          List.iter
            (fun text ->
              Lru.remove texts text;
              forget text)
            (Lru.fold (fun text k acc -> if k = key then text :: acc else acc) texts []))
        ();
    texts;
    plan_hits = Atomic.make 0;
    plan_misses = Atomic.make 0;
    churn = Horizon.Churn.create ()
  }

let database t = t.db

type outcome =
  | Msg of string
  | Rows of {
      columns : string list;
      relation : Relation.t;
      listing : (Tuple.t * Time.t) list Lazy.t;
      texp_e : Time.t;
      recomputed : bool;
    }

let catalog t name = Option.map Table.columns (Database.table t.db name)

let time_of_expires t = function
  | Ast.At n -> Time.of_int n
  | Ast.Never -> Time.infinity
  | Ast.Ttl d -> Time.add (Database.now t.db) (Time.of_int d)

(* Presentation order: stable sort on the ORDER BY labels, then LIMIT.
   The labels resolve (or fail) before any relation is given. *)
let order_and_limit ~columns ~order_by ~limit =
  let keys =
    List.map (fun (r, d) -> Lower.order_by_position ~columns r, d) order_by
  in
  fun relation ->
    let listing = Relation.to_list relation in
    let compare_rows (t1, _) (t2, _) =
      let rec go = function
        | [] -> Tuple.compare t1 t2 (* deterministic tie-break *)
        | (pos, dir) :: rest ->
          let c = Value.compare (Tuple.attr t1 pos) (Tuple.attr t2 pos) in
          if c <> 0 then
            match dir with
            | Ast.Asc -> c
            | Ast.Desc -> -c
          else go rest
      in
      go keys
    in
    let sorted =
      if order_by = [] then listing else List.stable_sort compare_rows listing
    in
    match limit with
    | None -> sorted
    | Some n -> List.filteri (fun i _ -> i < n) sorted

(* Lower + plan once per statement shape and catalog generation: the
   statement cache is the server hot path's per-request saving.  A
   request whose planned literals equal the plan's runs it as it is; one
   with other values in its conditions runs it with its constants
   replaced ({!Planner.rebind}), and the rebound plan becomes the
   entry's, so a repeated text runs it as it is again.  An uncached
   statement ([prepared] absent or without an entry) plans every time,
   uncounted.  [lower] lowers the statement.  The lock is dropped
   before lowering and planning so a cache miss never serialises
   against other readers; two concurrent misses on the same shape both
   plan and the second store wins — wasted work, never a wrong answer.
   Also answers whether the plan came from the cache. *)
let planned ?trace ?prepared t lower =
  let generation = Database.generation t.db in
  let reuse =
    match prepared with
    | Some ({ Statement_cache.entry = Some _; _ } as p) ->
      let reuse =
        Statement_cache.reuse t.statements p
          ~current:(fun plan -> plan.p_generation = generation)
          ~literals:(fun plan -> plan.p_literals)
      in
      Atomic.incr
        (match reuse with
         | Statement_cache.Absent -> t.plan_misses
         | Statement_cache.As_is _ | Statement_cache.Rebound _ -> t.plan_hits);
      reuse
    | Some _ | None -> Statement_cache.Absent
  in
  let store plan =
    Option.iter (fun p -> Statement_cache.store t.statements p plan) prepared;
    plan
  in
  let literals = Option.fold prepared ~none:[||] ~some:(fun p -> p.Statement_cache.literals) in
  match reuse with
  | Statement_cache.As_is plan -> (plan, true)
  | Statement_cache.Rebound (plan, f) ->
    ( store
        { plan with
          p_compiled = Planner.rebind ~db:t.db f plan.p_compiled;
          p_literals = literals
        },
      true )
  | Statement_cache.Absent ->
    let { Lower.expr; columns; approx } = Trace.span trace lower_span lower in
    let compiled =
      Trace.span trace plan_span (fun () -> Planner.plan ~db:t.db ?approx expr)
    in
    ( store
        { p_generation = generation;
          p_columns = columns;
          p_compiled = compiled;
          p_approx = approx;
          p_literals = literals
        },
      false )

let planned_query ?trace ?prepared t q =
  planned ?trace ?prepared t (fun () -> Lower.lower_query ~catalog:(catalog t) q)

(* [read] of the standing entry answering a grouped COUNT query's text,
   under the operator span the executor's fused aggregate would open:
   the entry found fresh, or built when the text is read again while
   [texts] remembers it and its plan came from the cache ([hit]; also on
   a stale stamp: a mutation that bypassed [write]), or at once when
   [returning].  Otherwise the text is remembered, and the answer is
   [None].  Lookup and promotion hold the cache's lock; the O(rows)
   build runs outside it, like a plan miss, and an entry whose shape was
   evicted or replanned meanwhile is not kept. *)
let standing ?trace ?prepared ~hit ~returning t (plan : plan_entry) ~rows read =
  match prepared with
  | Some { Statement_cache.entry = Some e; text; _ }
    when Subscription.counted plan.p_compiled ->
    let locked f = Statement_cache.locked t.statements f in
    let key = Statement_cache.key e in
    let build () =
      let built = Subscription.prepare t.cached plan.p_compiled in
      locked (fun () ->
          if Statement_cache.holds t.statements e (fun p -> p.p_generation = plan.p_generation)
          then begin
            Lru.set t.texts text key;
            Subscription.install t.cached ~name:text built
          end);
      built
    in
    let found =
      locked (fun () ->
          match Subscription.fresh t.cached text, Lru.find t.texts text with
          | Some s, _ -> Some (fun () -> s)
          | None, Some _ when hit -> Some build
          | None, _ when returning -> Some build
          | None, _ ->
            Lru.set t.texts text key;
            None)
    in
    Option.map
      (fun entry ->
        match trace with
        | None -> read (entry ())
        | Some _ ->
          Trace.span trace aggregate_span (fun () ->
              let r = read (entry ()) in
              Trace.count trace rows_key (rows r);
              r))
      found
  | Some _ | None -> None

let plan_cache_stats t =
  { hits = Atomic.get t.plan_hits;
    misses = Atomic.get t.plan_misses;
    entries = Statement_cache.length t.statements
  }

(* [AT n] queries the known future: the current physical state as it
   will stand at time n, assuming no further updates — the future of
   expiring data is known in advance. *)
let at_tau ~now = function
  | None -> None
  | Some n ->
    let tau = Time.of_int n in
    if Time.(tau < now) then
      failwith "AT time is in the past (the past is not retained)"
    else Some tau

let tau_of_at t = at_tau ~now:(Database.now t.db)

let run_query ?trace ?prepared t { Ast.q; at; order_by; limit } =
  let tau = tau_of_at t at in
  let entry, hit = planned_query ?trace ?prepared t q in
  let eval () =
    Executor.run ?trace ?tau ~db:t.db entry.p_compiled
  in
  let prepared = if at = None then prepared else None in
  let { Eval.relation; texp = texp_e } =
    Trace.span trace eval_span (fun () ->
        match
          standing ?trace ?prepared ~hit ~returning:false t entry
            ~rows:(fun r -> Relation.cardinal r.Eval.relation)
            Subscription.answer
        with
        | Some r -> r
        | None when entry.p_approx = None -> eval ()
        | None -> Trace.span trace sketch_query_span eval)
  in
  let columns = entry.p_columns in
  let present = order_and_limit ~columns ~order_by ~limit in
  let listing = lazy (present relation) in
  Rows { columns; relation; listing; texp_e; recomputed = false }

(* The shard-side halves of distributed aggregates: {!run}'s
   [Sketch_partial] and [Agg_partial].  AVG travels as its SUM and
   COUNT components inside the slices, never pre-averaged. *)
let sketch_partial ?trace ?prepared t q =
  let entry, _ = planned_query ?trace ?prepared t q in
  if entry.p_approx = None then
    failwith "a sketch partial needs an APPROX_COUNT or SAMPLE query";
  Trace.span trace sketch_query_span (fun () ->
      (entry.p_columns, Executor.sketch ?trace ~db:t.db entry.p_compiled))

type agg_groups =
  | Condensed of Partial_agg.t
  | Standing of Partial_agg.standing

let aggregate_partial ?trace ?prepared t ~returning { Ast.q; at; order_by = _; limit = _ } =
  let tau = tau_of_at t at in
  let entry, hit = planned_query ?trace ?prepared t q in
  let { p_compiled = compiled; p_columns = columns; _ } = entry in
  (* The shape a coordinator plans a partials exchange for
     ({!Planner.distribute}): a grouped aggregate over one table's
     scan. *)
  (match compiled.Plan.physical with
   | Plan.Grouped_aggregate { child = Plan.Scan _; _ } -> ()
   | _ -> failwith "a grouped partial needs a query that decomposes");
  (* A reader that held this node's groups before (the entry was
     evicted, rebuilt or lost to a restart) promotes the statement at
     once. *)
  let prepared = if at = None then prepared else None in
  let groups, child_texp =
    Trace.span trace eval_span (fun () ->
        (* the scan under a standing COUNT never invalidates *)
        match
          standing ?trace ?prepared ~hit ~returning t entry
            ~rows:Partial_agg.standing_groups Subscription.standing
        with
        | Some st -> (Standing st, Time.Inf)
        | None ->
          let partial, child_texp = Executor.partial ?trace ?tau ~db:t.db compiled in
          (Condensed partial, child_texp))
  in
  (columns, groups, child_texp)

(* Standing queries lower and plan once, outside the cache: their texts
   never repeat. *)
let plan_standing t q =
  let { Lower.expr; columns; approx } = Lower.lower_query ~catalog:(catalog t) q in
  if approx <> None then
    failwith "APPROX_COUNT/SAMPLE cannot back a view, constraint or watch";
  (columns, Planner.plan ~db:t.db expr)

(* The one write path: SQL INSERT, DELETE, CREATE and DROP TABLE, every
   clock move, a replica's shipped records, a shard's rebalance rows and
   a coordinator's gathered rows all change the data here, and then
   reach every standing query. *)
let write ?trace t record =
  let before =
    match record with
    | Wal.Insert { table; tuple; _ } | Wal.Delete { table; tuple } ->
      Option.bind (Database.table t.db table) (fun tbl -> Table.texp_of tbl tuple)
    | Wal.Create_table _ | Wal.Drop_table _ | Wal.Advance _ -> None
  in
  Subscription.prune t.cached;
  (match t.store with
   | Some s -> Durable.write s record
   | None ->
     Database.validate t.db record;
     Database.apply t.db record);
  List.iter
    (fun subs -> Subscription.write ?trace subs ~before record)
    [ t.constraints; t.watches; t.maintained; t.cached ]

(* The standing queries reading a table: constraints, then views, then
   subscriptions, each in name order. *)
let readers t table =
  List.concat_map
    (fun (kind, subs) -> List.map (( ^ ) kind) (Subscription.readers subs table))
    [ ("constraint ", t.constraints); ("view ", t.maintained); ("subscription ", t.watches) ]

(* The one clock move: SQL ADVANCE and TICK, and a replica's shipped
   Advance.  The standing queries go first, while everything live in the
   interval is still stored — each constraint's entry counts its live
   rows into the transitions into violation and each watch delivers its
   events, one walk from the clock apiece (the [deliver] span).  Then
   the clock moves once, as an [Advance] written through {!write} (the
   [storage] span).  Returns the transitions in time order, ties in
   constraint name order. *)
let move_clock ?trace t target =
  if Time.is_infinite target then invalid_arg "ADVANCE: infinite time"
  else if Time.(target < Database.now t.db) then
    invalid_arg "ADVANCE: moving backwards";
  let found = ref [] in
  Trace.span trace deliver_span (fun () ->
      Subscription.deliver_until t.constraints target
        ~count:(fun name ->
          let violated = Invariant.violated (Hashtbl.find t.bounds name) in
          fun at ~before ~after ->
            if violated after && not (violated before) then
              found := (name, at, after) :: !found;
            true);
      List.iter
        (fun subs -> Subscription.deliver_until subs target)
        [ t.watches; t.maintained; t.cached ]);
  Trace.span trace storage_span (fun () -> write t (Wal.Advance target));
  List.stable_sort (fun (_, a, _) (_, b, _) -> Time.compare a b) (List.rev !found)

let advance_clock ?trace t target =
  Msg
    (String.concat "\n"
       (Printf.sprintf "clock advanced to %s" (Time.to_string target)
        :: List.map
             (fun (name, at, cardinality) ->
               Printf.sprintf "CONSTRAINT VIOLATED: %s at %s (%d rows)" name
                 (Time.to_string at) cardinality)
             (move_clock ?trace t target)))

(* Every constraint in name order, with its first transition into
   violation within 1000 ticks: one replay of the entries that commits
   nothing, each stopped at its first transition or, violated now, at
   its first instant. *)
let constraint_status t =
  let breaks = Hashtbl.create 8 in
  ignore
    (Subscription.forecast_events t.constraints
       ~until:(Time.add (Database.now t.db) (Time.of_int 999))
       ~count:(fun name ->
         let violated = Invariant.violated (Hashtbl.find t.bounds name) in
         fun at ~before ~after ->
           if violated after && not (violated before) then Hashtbl.replace breaks name at;
           not (violated before || violated after))
      : int);
  List.map
    (fun name ->
      let bounds = Hashtbl.find t.bounds name and rows = Subscription.rows t.constraints name in
      let bound label = Option.fold ~none:"" ~some:(Printf.sprintf ", %s %d" label) in
      Printf.sprintf "%s: %d row(s)%s%s — %s" name rows
        (bound "min" bounds.Invariant.min_rows)
        (bound "max" bounds.Invariant.max_rows)
        (if Invariant.violated bounds rows then "VIOLATED NOW"
         else
           match Hashtbl.find_opt breaks name with
           | Some at -> "breaks at " ^ Time.to_string at
           | None -> "holds for 1000 ticks"))
    (List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.bounds []))

let observe_churn t =
  match Time.to_int_opt (Database.now t.db) with
  | Some now ->
    Horizon.Churn.observe t.churn ~now
      ~arrivals:(Database.inserted_total t.db)
      ~expirations:(Database.expired_total t.db)
  | None -> ()

let churn_rates t =
  observe_churn t;
  Horizon.Churn.rates t.churn

let profile ?table t =
  let bounds = Horizon.default_bounds in
  let profile =
    match table with
    | None -> Database.expiring_within t.db ~bounds
    | Some name ->
      [ (name,
         Table.expiring_within (Database.table_exn t.db name)
           ~now:(Database.now t.db) ~bounds)
      ]
  in
  List.map (fun (name, counts) -> { Horizon.name; bounds; counts }) profile

let horizon_tables t = profile t

let fanout_forecast t =
  Subscription.forecast_events t.watches
    ~until:(Time.add (Database.now t.db) (Time.of_int Horizon.default_window))

(* The forward expiration profile at the current clock, with the exact
   fan-out forecast: one walk per watch over the window. *)
let horizon ?table t =
  let tables = profile ?table t in
  let arrival_rate, expiration_rate = churn_rates t in
  let now = Database.now t.db in
  let window = Horizon.default_window in
  { Horizon.now = Option.value (Time.to_int_opt now) ~default:0;
    window;
    fanout_events = fanout_forecast t;
    arrival_rate;
    expiration_rate;
    tables;
    shards = []
  }

let exec_statement ?trace ?prepared t = function
  | Ast.Create_table (name, columns) ->
    write t (Wal.Create_table { name; columns });
    Msg (Printf.sprintf "table %s created" name)
  | Ast.Drop_table name ->
    (* A standing query's entry reads its tables at writes and clock
       moves (a rerun, a [texp(e)] refresh): dropping a table it reads
       would fail them. *)
    (match readers t name with
     | [] -> ()
     | names ->
       failwith
         (Printf.sprintf "table %s is read by %s" name
            (String.concat ", " names)));
    write t (Wal.Drop_table name);
    Msg (Printf.sprintf "table %s dropped" name)
  | Ast.Create_index { table; column } ->
    (* Indexes are session-local physical state — they change access
       paths, never results — so they are not write-ahead logged; a
       reopened store rebuilds none and stays correct. *)
    let tbl = Database.table_exn t.db table in
    (match Table.column_position tbl column with
     | None ->
       failwith (Printf.sprintf "unknown column %s in table %s" column table)
     | Some pos ->
       Trace.span trace storage_span (fun () -> Table.create_index tbl ~column:pos);
       Database.bump_generation t.db;
       Subscription.prune t.cached;
       Msg (Printf.sprintf "index on %s (%s) created" table column))
  | Ast.Drop_index { table; column } ->
    let tbl = Database.table_exn t.db table in
    (match Table.column_position tbl column with
     | None ->
       failwith (Printf.sprintf "unknown column %s in table %s" column table)
     | Some pos ->
       Table.drop_index tbl ~column:pos;
       Database.bump_generation t.db;
       Subscription.prune t.cached;
       Msg (Printf.sprintf "index on %s (%s) dropped" table column))
  | Ast.Insert { table; values; expires } ->
    let texp = time_of_expires t expires in
    Trace.span trace storage_span (fun () ->
        write ?trace t (Wal.Insert { table; tuple = Tuple.of_list values; texp }));
    Msg "1 tuple inserted"
  | Ast.Delete (table, where) ->
    (* The live victims, planned and run like a query (an index for
       [col = k] or a range, a cut scan otherwise), through the
       statement cache like one. *)
    let { p_compiled = compiled; _ }, _ =
      planned ?trace ?prepared t (fun () ->
          let tbl = Database.table_exn t.db table in
          { Lower.expr =
              Option.fold where ~none:(Algebra.base table) ~some:(fun c ->
                  Algebra.select
                    (Lower.lower_cond_for_table ~columns:(Table.columns tbl) ~table c)
                    (Algebra.base table));
            columns = [];
            approx = None
          })
    in
    let victims =
      Trace.span trace eval_span (fun () ->
          Relation.tuples
            (Executor.run ?trace ~db:t.db compiled)
              .Eval.relation)
    in
    Trace.span trace storage_span (fun () ->
        List.iter
          (fun tuple -> write ?trace t (Wal.Delete { table; tuple }))
          victims);
    Msg (Printf.sprintf "%d tuple(s) deleted" (List.length victims))
  | Ast.Advance_to n -> advance_clock ?trace t (Time.of_int n)
  | Ast.Tick n ->
    advance_clock ?trace t (Time.add (Database.now t.db) (Time.of_int n))
  | Ast.Vacuum ->
    let reclaimed = Trace.span trace storage_span (fun () -> Database.vacuum t.db) in
    Msg (Printf.sprintf "%d tuple(s) reclaimed" reclaimed)
  | Ast.Checkpoint ->
    (match t.store with
     | None -> failwith "CHECKPOINT requires a durable store (no data directory)"
     | Some s ->
       let logged = Durable.wal_records s in
       let kept = Trace.span trace storage_span (fun () -> Durable.checkpoint s) in
       Msg
         (Printf.sprintf
            "checkpoint at position %d: %d log record(s) compacted into a \
             %d-record snapshot"
            (Durable.position s) logged kept))
  | Ast.Query qs -> run_query ?trace ?prepared t qs
  | Ast.Create_view { name; query; maintained } ->
    if Hashtbl.mem t.views name then failwith (Printf.sprintf "view %s exists" name);
    let columns, plan = plan_standing t query in
    if maintained then begin
      Subscription.subscribe t.maintained ~name plan;
      Hashtbl.replace t.views name (Kept columns);
      Msg
        (Printf.sprintf
           "maintained view %s materialised (tracks updates and the clock)" name)
    end
    else begin
      let result = Executor.run ~db:t.db plan in
      Hashtbl.replace t.views name (Plain { plan; columns; result });
      Msg
        (Printf.sprintf "view %s materialised (texp(e) = %s, %s)" name
           (Time.to_string result.Eval.texp)
           (match Monotone.classify plan.Plan.logical with
            | `Monotonic -> "monotonic: never recomputes"
            | `Non_monotonic k -> Printf.sprintf "%d non-monotonic operator(s)" k))
    end
  | Ast.Show_view name ->
    let tau = Database.now t.db in
    let columns, { Eval.relation; texp = texp_e }, recomputed =
      match Hashtbl.find_opt t.views name with
      | None -> failwith (Printf.sprintf "unknown view %s" name)
      | Some (Kept columns) ->
        (* kept current by every write and clock move: never recomputed *)
        let kept = Option.get (Subscription.result t.maintained name) in
        (columns, { kept with Eval.texp = Time.infinity }, false)
      | Some (Plain stored) ->
        let recomputed = Time.(tau >= stored.result.Eval.texp) in
        if recomputed then stored.result <- Executor.run ~db:t.db stored.plan;
        (stored.columns, stored.result, recomputed)
    in
    let relation = Relation.exp tau relation in
    Rows
      { columns;
        relation;
        listing = lazy (Relation.to_list relation);
        texp_e;
        recomputed
      }
  | Ast.Create_trigger { name; table } ->
    Trigger.register (Database.triggers t.db) ~name ~table (fun e ->
        Queue.add
          (Printf.sprintf "%s: %s%s expired at %s" name e.Trigger.table
             (Tuple.to_string e.Trigger.tuple)
             (Time.to_string e.Trigger.fired_at))
          t.trigger_log;
        if Queue.length t.trigger_log > trigger_log_capacity then begin
          ignore (Queue.pop t.trigger_log);
          t.triggers_dropped <- t.triggers_dropped + 1
        end);
    Msg (Printf.sprintf "trigger %s on %s created" name table)
  | Ast.Drop_trigger name ->
    Trigger.unregister (Database.triggers t.db) ~name;
    Msg (Printf.sprintf "trigger %s dropped" name)
  | Ast.Create_constraint { name; query; min_rows; max_rows } ->
    if Hashtbl.mem t.bounds name then
      failwith (Printf.sprintf "constraint %s exists" name)
    else begin
      let bounds = { Invariant.min_rows; max_rows } in
      Invariant.check_bounds bounds;
      Subscription.subscribe t.constraints ~name (snd (plan_standing t query));
      Hashtbl.replace t.bounds name bounds;
      Msg (Printf.sprintf "constraint %s created" name)
    end
  | Ast.Drop_constraint name ->
    if Subscription.unsubscribe t.constraints name then begin
      Hashtbl.remove t.bounds name;
      Msg (Printf.sprintf "constraint %s dropped" name)
    end
    else failwith (Printf.sprintf "unknown constraint %s" name)
  | Ast.Show_constraints ->
    (match constraint_status t with
     | [] -> Msg "(no constraints)"
     | lines -> Msg (String.concat "\n" lines))
  | Ast.Show_triggers ->
    let lines = List.of_seq (Queue.to_seq t.trigger_log) in
    Msg
      (match (t.triggers_dropped, lines) with
       | 0, [] -> "(no trigger firings)"
       | 0, lines -> String.concat "\n" lines
       | dropped, lines ->
         String.concat "\n"
           (Printf.sprintf "(%d older firing(s) dropped)" dropped :: lines))
  | Ast.Refresh_view name ->
    (match Hashtbl.find_opt t.views name with
     | None -> failwith (Printf.sprintf "unknown view %s" name)
     | Some (Kept _) ->
       Msg (Printf.sprintf "view %s is maintained and always current" name)
     | Some (Plain stored) ->
       stored.result <- Executor.run ~db:t.db stored.plan;
       Msg
         (Printf.sprintf "view %s refreshed (texp(e) = %s)" name
            (Time.to_string stored.result.Eval.texp)))
  | Ast.Show_tables ->
    Msg
      (match Database.table_names t.db with
       | [] -> "(no tables)"
       | names -> String.concat "\n" names)
  | Ast.Show_views ->
    let label name = function
      | Plain _ -> name
      | Kept _ -> name ^ " (maintained)"
    in
    (match
       List.sort String.compare
         (Hashtbl.fold (fun name v acc -> label name v :: acc) t.views [])
     with
     | [] -> Msg "(no views)"
     | names -> Msg (String.concat "\n" names))
  | Ast.Show_time -> Msg (Time.to_string (Database.now t.db))
  | Ast.Show_horizon table -> Msg (Horizon.render (horizon ?table t))
  | Ast.Explain q ->
    let { p_columns = columns; p_compiled = compiled; _ }, _ = planned_query ?prepared t q in
    let expr = compiled.Plan.logical in
    let { Eval.texp; _ } = Executor.run ~db:t.db compiled in
    Msg
      (Printf.sprintf
         "%scolumns: %s\nclass: %s\ntexp(e) now: %s\nphysical plan:\n%s"
         (Explain.expr_tree expr)
         (String.concat ", " columns)
         (match Monotone.classify expr with
          | `Monotonic -> "monotonic"
          | `Non_monotonic k -> Printf.sprintf "non-monotonic (%d)" k)
         (Time.to_string texp)
         (Plan.to_string compiled.Plan.physical))
  | Ast.Explain_analyze q ->
    (* Plan through the cache (EXPLAIN ANALYZE measures what a real
       request would run, cached plan included), then run under the
       request's trace, or a fresh one, and render the run's op spans. *)
    let entry, _ = planned_query ?trace ?prepared t q in
    let trace =
      match trace with
      | Some tr -> tr
      | None -> Trace.create ()
    in
    Msg
      (Trace.span (Some trace) eval_span (fun () ->
           Executor.analyze ~trace ~db:t.db entry.p_compiled))

(* A MAINTAINED view never needs recomputation. *)
let view_horizons t =
  Hashtbl.fold
    (fun name v acc ->
      (name,
       match v with
       | Plain { result; _ } -> result.Eval.texp
       | Kept _ -> Time.infinity)
      :: acc)
    t.views []
  |> List.sort compare

(* The errors a statement answers with rather than raises. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Errors.Unknown_relation name ->
    Error (Printf.sprintf "unknown relation %s" name)
  | exception Errors.Arity_mismatch msg -> Error msg
  | exception Lower.Error msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg

type _ want =
  | Answer : outcome want
  | Agg_partial : bool -> (string list * agg_groups * Time.t) want
  | Sketch_partial : (string list * Expirel_sketch.Any.t) want

let run (type a) ?trace (want : a want) t (prepared : prepared) : (a, string) result =
  let statement = prepared.Statement_cache.statement in
  guard (fun () : a ->
      match want, statement with
      | Answer, _ ->
        let outcome = exec_statement ?trace ~prepared t statement in
        (* Clock movement is the churn tracker's sampling edge: rates are
           per logical tick, so sample exactly when ticks happen. *)
        (match statement with
         | Ast.Advance_to _ | Ast.Tick _ | Ast.Vacuum -> observe_churn t
         | _ -> ());
        outcome
      | Agg_partial returning, Ast.Query qs ->
        aggregate_partial ?trace ~prepared t ~returning qs
      | Sketch_partial, Ast.Query { q; _ } -> sketch_partial ?trace ~prepared t q
      | (Agg_partial _ | Sketch_partial), _ ->
        failwith "a shard partial needs a query")

let exec ?trace t statement = run ?trace Answer t (Statement_cache.plain statement)

let subscribe t ~name statement handler =
  guard (fun () ->
      match statement with
      | Ast.Query { q; at = None; _ } ->
        let _, plan = plan_standing t q in
        Subscription.subscribe ~handler t.watches ~name plan
      | Ast.Query { at = Some _; _ } ->
        failwith
          "SUBSCRIBE takes a plain query (no AT: the stream itself walks \
           the future)"
      | _ -> failwith "SUBSCRIBE expects a SELECT query")

let unsubscribe t name = Subscription.unsubscribe t.watches name

(* A replica applies what its primary shipped; the primary refuses a
   DROP TABLE only under its own standing queries.  A replica's query
   over a table that is gone ends, or its next walk would fail on it. *)
let end_readers t table =
  let end_in subs f =
    List.iter
      (fun name -> ignore (Subscription.unsubscribe subs name); f name)
      (Subscription.readers subs table)
  in
  end_in t.constraints (Hashtbl.remove t.bounds);
  end_in t.watches ignore;
  end_in t.maintained (Hashtbl.remove t.views)

(* Each record is written once, so the replica's log positions stay the
   primary's — one the replica refuses (its clock overtook the record,
   after a snapshot from the past) as the no-op [Advance now].  An
   Advance goes through the one clock move, so a replica's watches
   deliver like the primary's. *)
let apply_records t records =
  match t.store with
  | None -> Error "no durable store to apply records to"
  | Some _ ->
    List.iter
      (fun record ->
        let now = Database.now t.db in
        match
          if Database.applies t.db record then record else Wal.Advance now
        with
        | Wal.Advance target when Time.(target > now) ->
          ignore (move_clock t target)
        | Wal.Drop_table table as record ->
          end_readers t table;
          write t record
        | record -> write t record)
      records;
    Ok ()

let install_snapshot t ~position records =
  match t.store with
  | None -> Error "no durable store to install a snapshot into"
  | Some s ->
    let tables = Database.table_names t.db in
    Durable.reset_to s ~position records;
    List.iter
      (fun table -> if Database.table t.db table = None then end_readers t table)
      tables;
    Subscription.prune t.cached;
    List.iter Subscription.reseed [ t.constraints; t.watches; t.maintained ];
    Ok ()

let standing_aggregates t =
  Statement_cache.locked t.statements (fun () ->
      ( Subscription.length t.cached,
        List.fold_left
          (fun n subs -> n + Subscription.groups subs)
          0 [ t.constraints; t.watches; t.maintained; t.cached ] ))

let prepare t text = Statement_cache.prepare t.statements text
let statement (p : prepared) = p.Statement_cache.statement

let exec_sql t text =
  match prepare t text with
  | prepared -> run Answer t prepared
  | exception Parser.Error (msg, off) ->
    Error (Printf.sprintf "parse error at %d: %s" off msg)

let exec_script t text =
  match Parser.parse_script text with
  | statements -> List.map (exec t) statements
  | exception Parser.Error (msg, off) ->
    [ Error (Printf.sprintf "parse error at %d: %s" off msg) ]

let render = function
  | Msg m -> m
  | Rows { columns; relation; listing; texp_e = _; recomputed } ->
    let table =
      Explain.rows_table ~columns ~arity:(Relation.arity relation)
        (Lazy.force listing)
    in
    if recomputed then table ^ "\n(view recomputed)" else table
