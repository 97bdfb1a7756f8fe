open Expirel_core
open Expirel_storage
open Expirel_exec
module Trace = Expirel_obs.Trace
module Horizon = Expirel_obs.Horizon

(* A plain view: its plan's result, served with rows cut at the clock
   until its [texp(e)] passes (Theorem 2), then rerun. *)
type stored_view = {
  plan : Plan.compiled;
  columns : string list;
  mutable result : Eval.result;
}

type maintained_view = {
  mutable maintained : Maintained.t;
  m_columns : string list;
}

type constraint_info = {
  c_plan : Plan.compiled;
  min_rows : int option;
  max_rows : int option;
}

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
}

type plan_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

type t = {
  db : Database.t;
  store : Durable.t option;
  views : (string, stored_view) Hashtbl.t;
  maintained_views : (string, maintained_view) Hashtbl.t;
  invariants : Invariant.t;
  constraints : (string, constraint_info) Hashtbl.t;
  mutable trigger_log : string list;  (* newest first *)
  plan_cache : (string, plan_entry) Lru.t;
      (* keyed by the statement's source text: hashing a short string is
         far cheaper than the polymorphic hash + deep structural
         equality an [Ast.query] key pays, which used to cost more than
         the lowering + planning the cache exists to skip *)
  parse_cache : (string, Ast.statement) Lru.t;
      (* text -> parsed statement, consulted before the parser: for a
         repeated statement the parse is the most expensive CPU stage
         left on the request path (several times the cost of lowering +
         planning combined).  Only queries are stored — mutations
         arrive with distinct literals and would churn the LRU without
         ever hitting. *)
  plan_mutex : Mutex.t;
      (* the server's rwlock admits concurrent readers, and readers
         mutate the cache (LRU recency, stats) — so the cache has its
         own lock, never held across lowering or evaluation *)
  mutable plan_hits : int;
  mutable plan_misses : int;
  churn : Horizon.Churn.t;
      (* arrival vs expiration velocity, sampled whenever the logical
         clock moves (ADVANCE/TICK/VACUUM) and on horizon reads *)
}

let create ?policy ?store () =
  let db =
    match store with
    | Some s -> Durable.database s
    | None -> Database.create ?policy ()
  in
  { db;
    store;
    views = Hashtbl.create 8;
    maintained_views = Hashtbl.create 8;
    invariants = Invariant.create db;
    constraints = Hashtbl.create 8;
    trigger_log = [];
    plan_cache = Lru.create ~capacity:64;
    parse_cache = Lru.create ~capacity:64;
    plan_mutex = Mutex.create ();
    plan_hits = 0;
    plan_misses = 0;
    churn = Horizon.Churn.create ()
  }

let database t = t.db
let store t = t.store

type outcome =
  | Msg of string
  | Rows of {
      columns : string list;
      relation : Relation.t;
      listing : (Tuple.t * Time.t) list;
      texp_e : Time.t;
      recomputed : bool;
    }

let catalog t name = Option.map Table.columns (Database.table t.db name)

let time_of_expires t = function
  | Ast.At n -> Time.of_int n
  | Ast.Never -> Time.infinity
  | Ast.Ttl d -> Time.add (Database.now t.db) (Time.of_int d)

(* Presentation order: stable sort on the ORDER BY labels, then LIMIT. *)
let order_and_limit ~columns ~order_by ~limit relation =
  let listing = Relation.to_list relation in
  let keys =
    List.map (fun (r, d) -> Lower.order_by_position ~columns r, d) order_by
  in
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

(* Per-operator timing: wrap every executor node in a trace span named
   after its Plan.operator_name, prefixed so the metrics layer can tell
   operator spans from stage spans.  Each op span is labeled with its
   output cardinality (through the executor-supplied [rows] extractor),
   so slow-log entries carry an operator breakdown with row counts, not
   just timings. *)
let xprobe_of trace =
  match trace with
  | None -> None
  | Some _ ->
    Some
      { Executor.probe =
          (fun op ~rows k ->
            Trace.span trace ("op:" ^ op) (fun () ->
                let r = k () in
                Trace.label trace "rows" (string_of_int (rows r));
                r))
      }

(* Lower + plan once per distinct statement text and catalog generation;
   the LRU is the server hot path's per-request saving.  [text] is the
   statement's source string — the cache key — threaded down from
   [exec_sql] and the server's request handler; callers that hold only
   an AST skip the cache (re-printing the AST to obtain a key would cost
   more than planning).  The lock is dropped before lowering and
   planning so a cache miss never serialises against other readers; two
   concurrent misses on the same query both plan and the second store
   wins — wasted work, never a wrong answer. *)
let planned_query ?trace ?text t q =
  let generation = Database.generation t.db in
  let cached =
    match text with
    | None -> None
    | Some key ->
      Mutex.protect t.plan_mutex (fun () ->
          match Lru.find t.plan_cache key with
          | Some entry when entry.p_generation = generation ->
            t.plan_hits <- t.plan_hits + 1;
            Some entry
          | Some _ | None ->
            t.plan_misses <- t.plan_misses + 1;
            None)
  in
  match cached with
  | Some entry -> entry
  | None ->
    let { Lower.expr; columns; approx } =
      Trace.span trace "lower" (fun () ->
          Lower.lower_query ~catalog:(catalog t) q)
    in
    let compiled =
      Trace.span trace "plan" (fun () -> Planner.plan ~db:t.db ?approx expr)
    in
    let entry =
      { p_generation = generation;
        p_columns = columns;
        p_compiled = compiled;
        p_approx = approx
      }
    in
    (match text with
     | Some key ->
       Mutex.protect t.plan_mutex (fun () -> Lru.set t.plan_cache key entry)
     | None -> ());
    entry

let plan_cache_stats t =
  Mutex.protect t.plan_mutex (fun () ->
      { hits = t.plan_hits;
        misses = t.plan_misses;
        entries = Lru.length t.plan_cache
      })

(* [AT n] queries the known future: the current physical state as it
   will stand at time n, assuming no further updates — the future of
   expiring data is known in advance. *)
let tau_of_at t = function
  | None -> None
  | Some n ->
    let tau = Time.of_int n in
    if Time.(tau < Database.now t.db) then
      failwith "AT time is in the past (the past is not retained)"
    else Some tau

let run_query ?trace ?text t { Ast.q; at; order_by; limit } =
  let tau = tau_of_at t at in
  let entry = planned_query ?trace ?text t q in
  let eval () =
    Executor.run ?probe:(xprobe_of trace) ?tau ~db:t.db entry.p_compiled
  in
  let { Eval.relation; texp = texp_e } =
    Trace.span trace "eval" (fun () ->
        match entry.p_approx with
        | None -> eval ()
        | Some _ -> Trace.span trace "sketch-query" eval)
  in
  let columns = entry.p_columns in
  let listing = order_and_limit ~columns ~order_by ~limit relation in
  Rows { columns; relation; listing; texp_e; recomputed = false }

(* Shard-side half of a distributed approximate aggregate: evaluate the
   child locally and return the folded sketch (not rows) for the
   coordinator to merge with other shards' partials. *)
let sketch_partial ?trace t q =
  let { Lower.expr; columns; approx } =
    Trace.span trace "lower" (fun () ->
        Lower.lower_query ~catalog:(catalog t) q)
  in
  match approx with
  | None -> failwith "sketch_partial: query has no APPROX_COUNT/SAMPLE item"
  | Some spec ->
    Trace.span trace "sketch-query" (fun () ->
        let compiled = Planner.plan ~db:t.db expr in
        let child =
          Executor.run ?probe:(xprobe_of trace) ~db:t.db compiled
        in
        let sketch =
          Approx.build spec ~arity:(Relation.arity child.Eval.relation)
            (fun f ->
              Relation.iter (fun t e -> f (Tuple.attr t) e) child.Eval.relation)
        in
        Expirel_sketch.Observatory.record
          ~name:(Approx.name spec)
          ~memory_bytes:(Expirel_sketch.Any.memory_bytes sketch)
          ~estimate:
            (Expirel_sketch.Any.live_estimate ~tau:(Database.now t.db) sketch);
        columns, sketch)

(* Shard-side half of a distributed grouped aggregate: condense the
   decomposed child's local rows into expiration-slice partials.  The
   coordinator merges one such partial per shard and finalises — AVG
   travels as its SUM and COUNT components inside the slices, never
   pre-averaged.  The query runs through the executor up to its fused
   aggregate node, which folds the child's cut batches straight into the
   partial under the [aggregate] operator span. *)
let aggregate_partial ?trace t { Ast.q; at; order_by = _; limit = _ } =
  let tau = tau_of_at t at in
  let lowered =
    Trace.span trace "lower" (fun () ->
        Lower.lower_query ~catalog:(catalog t) q)
  in
  if Lower.decompose lowered = None then
    failwith "aggregate_partial: query does not decompose";
  let partial, child_texp =
    Trace.span trace "eval" (fun () ->
        let compiled = Planner.plan ~db:t.db lowered.Lower.expr in
        Executor.partial ?probe:(xprobe_of trace) ?tau ~db:t.db compiled)
  in
  (lowered.Lower.columns, partial, child_texp)

(* Standing queries lower and plan once, outside the cache: their texts
   never repeat.  A maintained view needs only the lowered expression. *)
let lower_standing t q =
  let lowered = Lower.lower_query ~catalog:(catalog t) q in
  if lowered.Lower.approx <> None then
    failwith "APPROX_COUNT/SAMPLE cannot back a view, constraint or watch";
  lowered

let plan_standing t q =
  let { Lower.expr; columns; approx = _ } = lower_standing t q in
  (columns, Planner.plan ~db:t.db expr)

let view_name_taken t name =
  Hashtbl.mem t.views name || Hashtbl.mem t.maintained_views name

let each_maintained t f =
  Hashtbl.iter (fun _ mv -> mv.maintained <- f mv.maintained) t.maintained_views

(* Moving the clock goes through the invariant manager so constraint
   transitions inside the interval are reported alongside.  With a
   durable store the Advance is logged first (write-ahead), but applied
   only once, here — [Durable.advance_to] would move the clock a second
   time behind the invariant manager's back. *)
let advance_clock ?trace t target =
  let transitions =
    (* The whole state mutation — write-ahead logging, the clock move
       with its expirations, view maintenance — is the storage stage. *)
    Trace.span trace "storage" (fun () ->
        (match t.store with
         | Some s
           when (not (Time.is_infinite target))
                && Time.(target >= Database.now t.db) ->
           Durable.log_record s (Wal.Advance target)
         | Some _ | None -> ());
        let transitions = Invariant.advance t.invariants target in
        each_maintained t (fun m -> Maintained.advance m ~to_:target);
        transitions)
  in
  let base = Printf.sprintf "clock advanced to %s" (Time.to_string target) in
  match transitions with
  | [] -> Msg base
  | _ ->
    Msg
      (base ^ "\n"
       ^ String.concat "\n"
           (List.map
              (fun v ->
                Printf.sprintf "CONSTRAINT VIOLATED: %s at %s (%d rows)"
                  v.Invariant.name
                  (Time.to_string v.Invariant.at)
                  v.Invariant.cardinality)
              transitions))

let constraint_status t name info =
  let now = Database.now t.db in
  let cardinality =
    Relation.cardinal (Executor.run ~db:t.db info.c_plan).Eval.relation
  in
  let ok =
    (match info.min_rows with
     | Some n -> cardinality >= n
     | None -> true)
    && (match info.max_rows with
        | Some n -> cardinality <= n
        | None -> true)
  in
  let horizon = Time.add now (Time.of_int 1000) in
  let prediction =
    if not ok then "VIOLATED NOW"
    else
      let next bound =
        try Invariant.next_violation t.invariants ~name:(name ^ bound) ~horizon
        with Not_found -> None
      in
      match Time.min_list (List.filter_map next [ "!min"; "!max" ]) with
      | Time.Fin _ as at -> "breaks at " ^ Time.to_string at
      | Time.Inf -> "holds for 1000 ticks"
  in
  Printf.sprintf "%s: %d row(s)%s%s — %s" name cardinality
    (match info.min_rows with
     | Some n -> Printf.sprintf ", min %d" n
     | None -> "")
    (match info.max_rows with
     | Some n -> Printf.sprintf ", max %d" n
     | None -> "")
    prediction

let observe_churn t =
  match Time.to_int_opt (Database.now t.db) with
  | Some now ->
    Horizon.Churn.observe t.churn ~now
      ~arrivals:(Database.inserted_total t.db)
      ~expirations:(Database.expired_total t.db)
  | None -> ()

(* The forward expiration profile at the current clock.  The fan-out
   forecast is 0 here: subscriptions live above the interpreter (the
   network server owns them) and fill that field in before export. *)
let horizon ?table t =
  let bounds = Horizon.default_bounds in
  observe_churn t;
  let arrival_rate, expiration_rate = Horizon.Churn.rates t.churn in
  let profile =
    match table with
    | None -> Database.expiring_within t.db ~bounds
    | Some name ->
      [ (name,
         Table.expiring_within (Database.table_exn t.db name)
           ~now:(Database.now t.db) ~bounds)
      ]
  in
  { Horizon.now =
      (match Time.to_int_opt (Database.now t.db) with
       | Some n -> n
       | None -> 0);
    window = Horizon.default_window;
    fanout_events = 0;
    arrival_rate;
    expiration_rate;
    tables =
      List.map (fun (name, counts) -> { Horizon.name; bounds; counts }) profile
  }

let exec_statement ?trace ?text t = function
  | Ast.Create_table (name, columns) ->
    (match t.store with
     | Some s -> Durable.create_table s ~name ~columns
     | None ->
       let (_ : Table.t) = Database.create_table t.db ~name ~columns in
       ());
    Msg (Printf.sprintf "table %s created" name)
  | Ast.Drop_table name ->
    (* A constraint's plan reads its tables at every clock move: dropping
       one would fail every later ADVANCE, TICK and SHOW CONSTRAINTS. *)
    Hashtbl.iter
      (fun c info ->
        if List.mem name (Algebra.base_names info.c_plan.Plan.logical) then
          failwith (Printf.sprintf "table %s is read by constraint %s" name c))
      t.constraints;
    let dropped =
      match t.store with
      | Some s -> Durable.drop_table s name
      | None -> Database.drop_table t.db name
    in
    if dropped then Msg (Printf.sprintf "table %s dropped" name)
    else raise (Errors.Unknown_relation name)
  | Ast.Create_index { table; column } ->
    (* Indexes are session-local physical state — they change access
       paths, never results — so they are not write-ahead logged; a
       reopened store rebuilds none and stays correct. *)
    let tbl = Database.table_exn t.db table in
    (match Table.column_position tbl column with
     | None ->
       failwith (Printf.sprintf "unknown column %s in table %s" column table)
     | Some pos ->
       Trace.span trace "storage" (fun () -> Table.create_index tbl ~column:pos);
       Database.bump_generation t.db;
       Msg (Printf.sprintf "index on %s (%s) created" table column))
  | Ast.Drop_index { table; column } ->
    let tbl = Database.table_exn t.db table in
    (match Table.column_position tbl column with
     | None ->
       failwith (Printf.sprintf "unknown column %s in table %s" column table)
     | Some pos ->
       Table.drop_index tbl ~column:pos;
       Database.bump_generation t.db;
       Msg (Printf.sprintf "index on %s (%s) dropped" table column))
  | Ast.Insert { table; values; expires } ->
    let texp = time_of_expires t expires in
    Trace.span trace "storage" (fun () ->
        (match t.store with
         | Some s -> Durable.insert s table (Tuple.of_list values) ~texp
         | None -> Database.insert_values t.db table values ~texp);
        each_maintained t (fun m ->
            Maintained.insert m ~relation:table (Tuple.of_list values) ~texp));
    Msg "1 tuple inserted"
  | Ast.Delete (table, where) ->
    let tbl = Database.table_exn t.db table in
    let expr =
      Option.fold where ~none:(Algebra.base table) ~some:(fun c ->
          Algebra.select
            (Lower.lower_cond_for_table ~columns:(Table.columns tbl) ~table c)
            (Algebra.base table))
    in
    (* The live victims, planned and run like a query (an index for
       [col = k] or a range, a cut scan otherwise) but never cached:
       mutations carry distinct literals and would only churn the LRU. *)
    let compiled =
      Trace.span trace "plan" (fun () -> Planner.plan ~db:t.db expr)
    in
    let victims =
      Trace.span trace "eval" (fun () ->
          Relation.tuples
            (Executor.run ?probe:(xprobe_of trace) ~db:t.db compiled)
              .Eval.relation)
    in
    Trace.span trace "storage" (fun () ->
        List.iter
          (fun tuple ->
            (match t.store with
             | Some s -> ignore (Durable.delete s table tuple)
             | None -> ignore (Table.delete tbl tuple));
            each_maintained t (fun m ->
                Maintained.delete m ~relation:table tuple))
          victims);
    Msg (Printf.sprintf "%d tuple(s) deleted" (List.length victims))
  | Ast.Advance_to n -> advance_clock ?trace t (Time.of_int n)
  | Ast.Tick n ->
    advance_clock ?trace t (Time.add (Database.now t.db) (Time.of_int n))
  | Ast.Vacuum ->
    let reclaimed = Trace.span trace "storage" (fun () -> Database.vacuum t.db) in
    Msg (Printf.sprintf "%d tuple(s) reclaimed" reclaimed)
  | Ast.Checkpoint ->
    (match t.store with
     | None -> failwith "CHECKPOINT requires a durable store (no data directory)"
     | Some s ->
       let logged = Durable.wal_records s in
       let kept = Trace.span trace "storage" (fun () -> Durable.checkpoint s) in
       Msg
         (Printf.sprintf
            "checkpoint at position %d: %d log record(s) compacted into a \
             %d-record snapshot"
            (Durable.position s) logged kept))
  | Ast.Query qs -> run_query ?trace ?text t qs
  | Ast.Create_view { name; query; maintained } ->
    if view_name_taken t name then
      failwith (Printf.sprintf "view %s exists" name)
    else begin
      if maintained then begin
        let { Lower.expr; columns; approx = _ } = lower_standing t query in
        let now = Database.now t.db in
        let m = Maintained.materialise ~env:(Database.env t.db) ~tau:now expr in
        Hashtbl.replace t.maintained_views name
          { maintained = m; m_columns = columns };
        Msg
          (Printf.sprintf
             "maintained view %s materialised (tracks updates and the clock)"
             name)
      end
      else begin
        let columns, plan = plan_standing t query in
        let result = Executor.run ~db:t.db plan in
        Hashtbl.replace t.views name { plan; columns; result };
        Msg
          (Printf.sprintf "view %s materialised (texp(e) = %s, %s)" name
             (Time.to_string result.Eval.texp)
             (match Monotone.classify plan.Plan.logical with
              | `Monotonic -> "monotonic: never recomputes"
              | `Non_monotonic k ->
                Printf.sprintf "%d non-monotonic operator(s)" k))
      end
    end
  | Ast.Show_view name ->
    let view_rows ~columns ~texp_e ~recomputed relation =
      Rows
        { columns; relation; listing = Relation.to_list relation; texp_e;
          recomputed }
    in
    (match Hashtbl.find_opt t.maintained_views name with
     | Some mv ->
       (* maintained incrementally: never needs recomputation *)
       view_rows ~columns:mv.m_columns ~texp_e:Time.infinity ~recomputed:false
         (Maintained.read mv.maintained)
     | None ->
       (match Hashtbl.find_opt t.views name with
        | None -> failwith (Printf.sprintf "unknown view %s" name)
        | Some stored ->
          let tau = Database.now t.db in
          let recomputed = Time.(tau >= stored.result.Eval.texp) in
          if recomputed then stored.result <- Executor.run ~db:t.db stored.plan;
          view_rows ~columns:stored.columns ~texp_e:stored.result.Eval.texp
            ~recomputed
            (Relation.exp tau stored.result.Eval.relation)))
  | Ast.Create_trigger { name; table } ->
    Trigger.register (Database.triggers t.db) ~name ~table (fun e ->
        t.trigger_log <-
          Printf.sprintf "%s: %s%s expired at %s" name e.Trigger.table
            (Tuple.to_string e.Trigger.tuple)
            (Time.to_string e.Trigger.fired_at)
          :: t.trigger_log);
    Msg (Printf.sprintf "trigger %s on %s created" name table)
  | Ast.Drop_trigger name ->
    Trigger.unregister (Database.triggers t.db) ~name;
    Msg (Printf.sprintf "trigger %s dropped" name)
  | Ast.Create_constraint { name; query; min_rows; max_rows } ->
    if Hashtbl.mem t.constraints name then
      failwith (Printf.sprintf "constraint %s exists" name)
    else begin
      let _, plan = plan_standing t query in
      let add suffix spec =
        Option.iter (fun n ->
            Invariant.add t.invariants ~name:(name ^ suffix) plan (spec n))
      in
      add "!min" (fun n -> Invariant.Min_cardinality n) min_rows;
      add "!max" (fun n -> Invariant.Max_cardinality n) max_rows;
      Hashtbl.replace t.constraints name { c_plan = plan; min_rows; max_rows };
      Msg (Printf.sprintf "constraint %s created" name)
    end
  | Ast.Drop_constraint name ->
    if Hashtbl.mem t.constraints name then begin
      Hashtbl.remove t.constraints name;
      ignore (Invariant.remove t.invariants (name ^ "!min"));
      ignore (Invariant.remove t.invariants (name ^ "!max"));
      Msg (Printf.sprintf "constraint %s dropped" name)
    end
    else failwith (Printf.sprintf "unknown constraint %s" name)
  | Ast.Show_constraints ->
    (match Hashtbl.fold (fun name _ acc -> name :: acc) t.constraints [] with
     | [] -> Msg "(no constraints)"
     | names ->
       Msg
         (String.concat "\n"
            (List.map
               (fun name ->
                 constraint_status t name (Hashtbl.find t.constraints name))
               (List.sort String.compare names))))
  | Ast.Show_triggers ->
    Msg
      (match List.rev t.trigger_log with
       | [] -> "(no trigger firings)"
       | lines -> String.concat "\n" lines)
  | Ast.Refresh_view name ->
    if Hashtbl.mem t.maintained_views name then
      Msg (Printf.sprintf "view %s is maintained and always current" name)
    else
      (match Hashtbl.find_opt t.views name with
       | None -> failwith (Printf.sprintf "unknown view %s" name)
       | Some stored ->
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
    let plain = Hashtbl.fold (fun name _ acc -> name :: acc) t.views [] in
    let maintained =
      Hashtbl.fold (fun name _ acc -> (name ^ " (maintained)") :: acc)
        t.maintained_views []
    in
    (match List.sort String.compare (plain @ maintained) with
     | [] -> Msg "(no views)"
     | names -> Msg (String.concat "\n" names))
  | Ast.Show_time -> Msg (Time.to_string (Database.now t.db))
  | Ast.Show_horizon table -> Msg (Horizon.render (horizon ?table t))
  | Ast.Explain q ->
    let { p_columns = columns; p_compiled = compiled; _ } = planned_query t q in
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
    (* Plan through the cache (EXPLAIN ANALYZE profiles what a real
       request would run, cached plan included), then execute with a
       profile sink and report the annotated tree. *)
    let entry = planned_query ?trace ?text t q in
    let physical = entry.p_compiled.Plan.physical in
    let profile = Profile.of_plan ~db:t.db physical in
    let { Eval.relation; texp = texp_e } =
      Trace.span trace "eval" (fun () ->
          Executor.run ?probe:(xprobe_of trace) ~profile ~db:t.db
            entry.p_compiled)
    in
    Msg
      (Printf.sprintf
         "%srows: %d\ntexp(e) now: %s\nexpired dropped: %d\ntotal: %.3fms"
         (Profile.render physical profile)
         (Relation.cardinal relation)
         (Time.to_string texp_e)
         (Profile.total_expired_dropped profile)
         (float_of_int profile.Profile.time_us /. 1e3))

let view_horizons t =
  let plain =
    Hashtbl.fold
      (fun name sv acc -> (name, sv.result.Eval.texp) :: acc)
      t.views []
  in
  let maintained =
    (* Maintained incrementally under updates and the clock: their
       materialisation never needs recomputation. *)
    Hashtbl.fold
      (fun name _ acc -> (name, Time.infinity) :: acc)
      t.maintained_views []
  in
  List.sort compare (plain @ maintained)

let exec ?trace ?text t statement =
  match exec_statement ?trace ?text t statement with
  | outcome ->
    (* Clock movement is the churn tracker's sampling edge: rates are
       per logical tick, so sample exactly when ticks happen. *)
    (match statement with
     | Ast.Advance_to _ | Ast.Tick _ | Ast.Vacuum -> observe_churn t
     | _ -> ());
    Ok outcome
  | exception Errors.Unknown_relation name ->
    Error (Printf.sprintf "unknown relation %s" name)
  | exception Errors.Arity_mismatch msg -> Error msg
  | exception Lower.Error msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg

(* Parse through the statement cache.  A parsed AST is immutable, so
   sharing one across requests is safe; parse errors raise before the
   store and are never cached.  Raises [Parser.Error]. *)
let parse t text =
  match Mutex.protect t.plan_mutex (fun () -> Lru.find t.parse_cache text) with
  | Some statement -> statement
  | None ->
    let statement = Parser.parse_statement text in
    (match statement with
     | Ast.Query _ ->
       Mutex.protect t.plan_mutex (fun () ->
           Lru.set t.parse_cache text statement)
     | _ -> ());
    statement

let exec_sql t text =
  match parse t text with
  | statement -> exec ~text t statement
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
      Explain.rows_table ~columns ~arity:(Relation.arity relation) listing
    in
    if recomputed then table ^ "\n(view recomputed)" else table
