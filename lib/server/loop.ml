open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx
module Obs = Expirel_obs

(* The span names the loop records, interned once. *)
let parse_span = Obs.Trace.name "parse"
let held_span = Obs.Trace.name "held"

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

(* What a copy weighs against the budget: its rows, or its groups. *)
let weigh { copy; _ } =
  match copy with
  | Answer { rows; _ } -> rows
  | Groups st -> Partial_agg.standing_groups st

type conn = {
  id : int;
  fd : Unix.file_descr;
  reader : Frame.reader;
  metrics : Metrics.t;
  write_mutex : Mutex.t;
  mutable alive : bool;
  held : (string, held) Lru.t;
  mutable last_version : int;
  mutable worker : Thread.t option;
}

let new_conn ~id metrics fd =
  { id;
    fd;
    reader = Frame.reader fd;
    metrics;
    write_mutex = Mutex.create ();
    alive = true;
    held = Lru.create ~weigh ~capacity:Wire.held_budget ();
    last_version = 0;
    worker = None
  }

let id conn = conn.id
let alive conn = conn.alive

type 's service = {
  parse : string -> 's;
  holdable : 's -> bool;
  run : Obs.Trace.t option -> string -> 's -> (Interp.outcome, Wire.response) result;
  metrics : unit -> Wire.response;
  health : unit -> Wire.response;
  horizon : string option -> Wire.response;
  traces : int -> Obs.Trace_store.entry list;
  other : conn -> Wire.request -> Wire.response option;
  closed : conn -> unit;
}

type t = {
  node_name : string;
  max_connections : int;
  request_timeout : float;
  health_rules : Obs.Health.rule list;
  mutable last_health : Obs.Health.level;
  metrics : Metrics.t;
  trace_store : Obs.Trace_store.t;
  state_mutex : Mutex.t;
  conns : (int, conn) Hashtbl.t;  (* open connections, by id *)
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int option;
  mutable acceptor : Thread.t option;
  mutable shutting_down : bool;
  mutable next_id : int;
}

let create ~node_name ~max_connections ~request_timeout ~health_rules () =
  let t =
    { node_name;
      max_connections;
      request_timeout;
      health_rules;
      last_health = Obs.Health.Ok;
      metrics = Metrics.create ();
      trace_store = Obs.Trace_store.create ();
      state_mutex = Mutex.create ();
      conns = Hashtbl.create 16;
      listen_fd = None;
      bound_port = None;
      acceptor = None;
      shutting_down = false;
      next_id = 0
    }
  in
  (* The last HEALTH verdict.  It reads the cached level rather than
     re-evaluating: evaluation collects the registry, which must not
     re-enter from inside a collect. *)
  Obs.Registry.gauge_fun (Metrics.registry t.metrics) ~name:"expirel_health_status"
    ~help:"Last HEALTH verdict (0 = ok, 1 = degraded, 2 = critical); \
           updated each time a HEALTH request is served" (fun () ->
      match t.last_health with
      | Obs.Health.Ok -> 0.
      | Obs.Health.Degraded -> 1.
      | Obs.Health.Critical -> 2.);
  t

let metrics t = t.metrics

let health t =
  let report =
    Obs.Health.evaluate t.health_rules (Obs.Registry.collect (Metrics.registry t.metrics))
  in
  t.last_health <- report.Obs.Health.level;
  report

let trace_store t = t.trace_store
let stopping t = t.shutting_down

let port t =
  match t.bound_port with
  | Some p -> p
  | None -> invalid_arg "Loop.port: not started"

let locked_state t f = Mutex.protect t.state_mutex f

(* ---------- responding ---------- *)

(* Responses and pushed events share one outbound stream: the worker
   thread answers requests while the thread driving an ADVANCE pushes
   subscription events, so every write serialises on the connection's
   mutex.  A frame is counted before it is written, so a peer holding a
   reply reads counters that already include it. *)
let send conn response =
  if conn.alive then begin
    Mutex.lock conn.write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.write_mutex)
      (fun () ->
        let payload = Wire.encode_response response in
        Metrics.add_bytes_out conn.metrics (String.length payload + 4);
        try ignore (Frame.send conn.fd payload)
        with Frame.Closed | Frame.Timeout | Unix.Unix_error _ ->
          (* A peer that stopped reading loses its stream; never stall
             the server (an event push runs under the global write
             lock, bounded by SO_SNDTIMEO). *)
          conn.alive <- false)
  end

let wire_rows listing =
  List.map (fun (tuple, texp) -> (Tuple.to_list tuple, texp)) listing

let response_of_outcome = function
  | Interp.Msg m -> Wire.Ok_msg m
  | Interp.Rows { columns; listing; texp_e; recomputed; relation = _ } ->
    Wire.Rows
      { columns; rows = wire_rows (Lazy.force listing); texp_e; recomputed }

let reply = function
  | Ok outcome -> response_of_outcome outcome
  | Error response -> response

(* Every statement is traced: parse, then whatever the run records.
   The finished trace feeds the stage/operator histograms and the trace
   store, which SLOW ranks by duration, whether the statement succeeded
   or failed — failing statements are exactly the ones worth finding
   there.  When the request carried a trace context, the spans record
   under the caller's trace id with the caller's span as their root
   parent, so a fan-out request yields one cross-node trace.  A trace
   the caller passes in is the caller's to finish. *)
let traced t ?trace ?ctx ~parse sql run =
  let tr =
    match (trace, ctx) with
    | Some tr, _ -> tr
    | None, Some ctx -> Wire.trace_of_ctx ctx
    | None, None -> Obs.Trace.create ()
  in
  let trace' = Some tr in
  let response =
    Wire.parsing
      (fun sql -> Obs.Trace.span trace' parse_span (fun () -> parse sql))
      sql (run trace')
  in
  if Option.is_none trace then begin
    Metrics.observe_trace t.metrics tr;
    Obs.Trace_store.finish t.trace_store ~node:t.node_name ~name:sql tr
  end;
  response

(* ---------- held answers ---------- *)

(* Presentation order is tuple order only without ORDER BY and LIMIT:
   then the answer's rows are its relation's, and a delta in tuple
   order patches them. *)
let holdable = function
  | Ast.Query { order_by = []; limit = None; _ } -> true
  | _ -> false

(* Every change to a connection's held answers moves the gauge by what
   it did to their number (an insert over the budget evicts). *)
let update_held conn f =
  let before = Lru.length conn.held in
  f conn.held;
  Metrics.add_held_answers conn.metrics (Lru.length conn.held - before)

(* [copy] held for [sql] under the connection's next version. *)
let keep conn sql copy =
  conn.last_version <- conn.last_version + 1;
  let version = conn.last_version in
  update_held conn (fun h -> Lru.set h sql { version; copy });
  version

(* The reply to a holdable query on a [Statement] request.  A delta
   goes out when the connection holds the version the client names and
   fewer than half the answer's rows changed since; it is built from
   the diff alone, without listing the answer.  Otherwise the whole
   answer goes out under a fresh version.  An answer too small to hold,
   or larger than the budget, goes out as plain [Rows], and the
   connection forgets the text.  A change adds at most one row, so a
   delta needs fewer changes than the held answer has rows: the diff
   gives up there. *)
let hold conn ~sql ~held (outcome : Interp.outcome) =
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
      let version = keep conn sql (Answer { answer = relation; rows }) in
      Wire.Held_rows { version; body }
    in
    match delta with
    | Some (base, upserts, removed, rows) ->
      Metrics.incr_held_reply conn.metrics ~delta:true;
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
      if rows < Wire.held_min_rows || rows > Wire.held_budget then begin
        update_held conn (fun h -> Lru.remove h sql);
        response_of_outcome outcome
      end
      else begin
        Metrics.incr_held_reply conn.metrics ~delta:false;
        keep rows
          (Wire.Held_whole
             { columns; rows = wire_rows listing; texp_e; recomputed })
      end

(* Any two standings diff exactly: an evicted or rebuilt entry shares no
   members record with the groups held, so the diff names every group
   and marks each gone one slice-less.  A delta is never longer than
   the whole answer and the reader keeps the groups anyway, so no size
   rule applies.  A kept read answered without an entry carries no
   version, and the connection forgets the text. *)
let hold_groups conn ~sql ~held (columns, groups, child_texp) =
  let body groups held = Wire.Body_agg { columns; child_texp; groups; held } in
  match (held, (groups : Interp.agg_groups)) with
  | None, Condensed groups -> body groups None
  | None, Standing st -> body (Partial_agg.standing_partial st) None
  | Some _, Condensed groups ->
    update_held conn (fun h -> Lru.remove h sql);
    body groups None
  | Some base, Standing st ->
    let delta =
      match Lru.find conn.held sql with
      | Some { version; copy = Groups groups } when version = base ->
        Some (Partial_agg.standing_diff groups st)
      | Some _ | None -> None
    in
    let version = keep conn sql (Groups st) in
    Metrics.incr_held_reply conn.metrics ~delta:(Option.is_some delta);
    (match delta with
     | Some changed -> body changed (Some { Wire.version; full = false })
     | None -> body (Partial_agg.standing_partial st) (Some { Wire.version; full = true }))

(* ---------- requests ---------- *)

(* The one statement path: parsed, run by the service, and held when
   it came as a [Statement] on [conn] and its rows go out in tuple
   order.  [Exec] and [Exec_traced] hold nothing. *)
let statement t service ?ctx ?conn ?held sql =
  traced t ?ctx ~parse:service.parse sql (fun trace stmt ->
      match service.run trace sql stmt with
      | Error response -> response
      | Ok outcome ->
        (match conn with
         | Some conn when service.holdable stmt ->
           Obs.Trace.span trace held_span (fun () -> hold conn ~sql ~held outcome)
         | Some _ | None -> response_of_outcome outcome))

(* [None]: the service took the connection over, and it closes. *)
let handle t service conn = function
  | Wire.Exec sql -> Some (statement t service sql)
  | Wire.Exec_traced { sql; ctx } -> Some (statement t service ~ctx sql)
  | Wire.Statement { sql; ctx; held } -> Some (statement t service ?ctx ~conn ?held sql)
  | Wire.Metrics -> Some (service.metrics ())
  | Wire.Health -> Some (service.health ())
  | Wire.Horizon table -> Some (service.horizon table)
  | Wire.Trace_recent n -> Some (Wire.Traces_reply (service.traces (max 0 n)))
  | Wire.Slow_queries n ->
    Some (Wire.Traces_reply (Obs.Trace_store.slowest t.trace_store (max 0 n)))
  | Wire.Ping -> Some Wire.Pong
  | request -> service.other conn request

(* ---------- connection lifecycle ---------- *)

let close_conn t service conn =
  service.closed conn;
  Metrics.add_held_answers t.metrics (-Lru.length conn.held);
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  locked_state t (fun () -> Hashtbl.remove t.conns conn.id);
  Metrics.connection_closed t.metrics

let rec serve_conn t service conn =
  match Frame.recv conn.reader with
  | exception (Frame.Closed | Frame.Timeout | Unix.Unix_error _) -> ()
  | exception Frame.Oversized len ->
    send conn
      (Wire.Err
         { code = Wire.Proto_error;
           message = Printf.sprintf "frame of %d bytes exceeds max %d" len Frame.max_frame
         });
    Metrics.incr_errors t.metrics
  | payload, bytes ->
    Metrics.add_bytes_in t.metrics bytes;
    let started = Unix.gettimeofday () in
    let response, keep_going =
      match Wire.decode_request payload with
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
        (Some (Wire.Err { code; message }), false)
      | Ok Wire.Quit -> (Some Wire.Bye, false)
      | Ok request -> (handle t service conn request, true)
    in
    match response with
    | None -> ()
    | Some response ->
      Metrics.incr_requests t.metrics;
      (match response with
       | Wire.Err _ -> Metrics.incr_errors t.metrics
       | _ -> ());
      Metrics.observe_latency t.metrics ~seconds:(Unix.gettimeofday () -. started);
      send conn response;
      if keep_going && conn.alive && not t.shutting_down then serve_conn t service conn

let worker t service conn =
  (try serve_conn t service conn with _ -> ());
  close_conn t service conn

let refuse t fd =
  send (new_conn ~id:(-1) t.metrics fd)
    (Wire.Err
       { code = Wire.Overloaded;
         message = Printf.sprintf "connection cap %d reached" t.max_connections
       });
  Metrics.incr_errors t.metrics;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let rec accept_loop t service listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t service listen_fd
  | exception Unix.Unix_error _ -> ()  (* listener closed: shutdown *)
  | fd, _ ->
    if t.shutting_down then (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      (* Never let a peer that stopped reading block a worker (or an
         event push holding the write lock) forever. *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.request_timeout
       with Unix.Unix_error _ -> ());
      let accepted =
        locked_state t (fun () ->
            if Hashtbl.length t.conns >= t.max_connections then None
            else begin
              t.next_id <- t.next_id + 1;
              let conn = new_conn ~id:t.next_id t.metrics fd in
              Hashtbl.replace t.conns conn.id conn;
              Some conn
            end)
      in
      (match accepted with
       | None -> refuse t fd
       | Some conn ->
         Metrics.connection_opened t.metrics;
         let thread = Thread.create (fun () -> worker t service conn) () in
         locked_state t (fun () -> conn.worker <- Some thread));
      accept_loop t service listen_fd
    end

let start t ~host ~port service =
  if t.acceptor <> None then invalid_arg "Loop.start: already started";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (match Unix.getsockname fd with
   | Unix.ADDR_INET (_, p) -> t.bound_port <- Some p
   | Unix.ADDR_UNIX _ -> ());
  t.listen_fd <- Some fd;
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t service fd) ())

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
  List.iter (fun conn -> Option.iter Thread.join (locked_state t (fun () -> conn.worker))) conns
