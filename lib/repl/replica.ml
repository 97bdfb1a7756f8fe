open Expirel_core
open Expirel_storage
open Expirel_server

(* A receive quieter than this is a dead primary (heartbeats come every
   0.25 s); Frame.recv raises Timeout through SO_RCVTIMEO and the
   applier redials. *)
let receive_timeout = 2.0

type t = {
  primary_host : string;
  primary_port : int;
  replica_id : string;
  backoff : Backoff.t;
  server : Server.t;
  store : Durable.t;
  mutex : Mutex.t;
  mutable source_position : int;
  mutable source_now : Time.t;
  mutable reconnects : int;
  mutable snapshots : int;
  mutable applied : int;
  mutable is_connected : bool;
  mutable sock : Unix.file_descr option;
  mutable running : bool;
  mutable applier : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let position t = Durable.position t.store
let source_position t = locked t (fun () -> t.source_position)
let source_now t = locked t (fun () -> t.source_now)

let reconnects t = locked t (fun () -> t.reconnects)
let snapshots_received t = locked t (fun () -> t.snapshots)
let records_applied t = locked t (fun () -> t.applied)
let server t = t.server
let port t = Server.port t.server

let repl_stats t () =
  let position = position t in
  locked t (fun () ->
      Some
        { Metrics.role = Metrics.Replica;
          source_position = t.source_position;
          lag_records = max 0 (t.source_position - position);
          clock_lag =
            (match t.source_now, Durable.now t.store with
             | Time.Fin src, Time.Fin local -> max 0 (src - local)
             | (Time.Fin _ | Time.Inf), _ -> 0);
          reconnects = t.reconnects;
          bootstraps = t.snapshots;
          records_shipped = t.applied;
          followers = 0
        })

let create ?(host = "127.0.0.1") ?(port = 0) ?replica_id ?backoff ~data_dir
    ~primary_host ~primary_port () =
  let replica_id =
    match replica_id with
    | Some id -> id
    | None -> Filename.basename data_dir
  in
  let server =
    Server.create
      ~config:
        { Server.default_config with
          host;
          port;
          data_dir = Some data_dir;
          read_only = true;
          node_name = replica_id
        }
      ()
  in
  let store =
    match Server.store server with
    | Some s -> s
    | None -> assert false  (* data_dir was set *)
  in
  let t =
    { primary_host;
      primary_port;
      replica_id;
      backoff = (match backoff with Some b -> b | None -> Backoff.create ());
      server;
      store;
      mutex = Mutex.create ();
      source_position = Durable.position store;
      source_now = Durable.now store;
      reconnects = 0;
      snapshots = 0;
      applied = 0;
      is_connected = false;
      sock = None;
      running = false;
      applier = None
    }
  in
  Metrics.set_repl_source (Server.metrics server) (repl_stats t);
  t

(* ---------- the applier ---------- *)

let handshake_span = Expirel_obs.Trace.name "repl:handshake"

(* One connection's lifetime: handshake from the current durable
   position, then apply the stream until something breaks.  Exceptions
   (Frame.Closed / Timeout / Unix_error) are the caller's signal to
   redial. *)
let stream_once t fd =
  (* The handshake carries a trace context minted here, and the trace is
     parked in this replica's trace store: the primary records its
     initial shipment under the same id, so exporting both nodes'
     recent traces shows the join as one timeline. *)
  let tr = Expirel_obs.Trace.create () in
  let (_ : int) =
    Expirel_obs.Trace.span (Some tr) handshake_span (fun () ->
        Frame.send fd
          (Wire.encode_request
             (Wire.Replicate
                { replica_id = t.replica_id;
                  position = Durable.position t.store;
                  ctx = Some (Wire.ctx_of_trace tr)
                })))
  in
  Expirel_obs.Trace_store.finish
    (Server.trace_store t.server)
    ~node:t.replica_id ~name:"replicate" tr;
  let ok = ref true and reader = Frame.reader fd in
  while !ok && t.running do
    let payload, _ = Frame.recv reader in
    match Wire.decode_response payload with
    | Ok (Wire.Repl_snapshot { position; records }) ->
      (match Server.install_snapshot t.server ~position records with
       | Ok () ->
         locked t (fun () ->
             t.snapshots <- t.snapshots + 1;
             t.source_position <- max t.source_position position;
             t.is_connected <- true);
         Backoff.reset t.backoff
       | Error _ -> ok := false)
    | Ok (Wire.Repl_records { from_position; records }) ->
      if from_position <> Durable.position t.store then
        (* Lost frames or a foreign history: redial and re-handshake
           from the position we actually hold. *)
        ok := false
      else begin
        match Server.apply_records t.server records with
        | Ok () ->
          locked t (fun () ->
              t.applied <- t.applied + List.length records;
              t.source_position <-
                max t.source_position (from_position + List.length records);
              t.is_connected <- true);
          Backoff.reset t.backoff
        | Error _ -> ok := false
      end
    | Ok (Wire.Repl_heartbeat { position; now }) ->
      locked t (fun () ->
          t.source_position <- max t.source_position position;
          t.source_now <- now;
          t.is_connected <- true);
      Backoff.reset t.backoff
    | Ok (Wire.Err _) | Ok _ | Error _ ->
      (* The peer is not streaming (old version, no store, garbage):
         drop the connection and retry under backoff. *)
      ok := false
  done

let applier_loop t =
  while t.running do
    (match
       Client.dial ~timeout:receive_timeout ~host:t.primary_host ~port:t.primary_port ()
     with
     | exception (Unix.Unix_error _ | Frame.Closed | Frame.Timeout) -> ()
     | fd ->
       locked t (fun () -> t.sock <- Some fd);
       (try stream_once t fd
        with Frame.Closed | Frame.Timeout | Frame.Oversized _
           | Unix.Unix_error _ -> ());
       locked t (fun () ->
           t.sock <- None;
           t.is_connected <- false);
       (try Unix.close fd with Unix.Unix_error _ -> ()));
    if t.running then begin
      locked t (fun () -> t.reconnects <- t.reconnects + 1);
      (* Sleep in slices so stop () is never stuck behind a long
         backoff. *)
      let delay = Backoff.next t.backoff in
      let slept = ref 0.0 in
      while t.running && !slept < delay do
        Thread.delay 0.02;
        slept := !slept +. 0.02
      done
    end
  done

let start t =
  if t.applier <> None then invalid_arg "Replica.start: already started";
  Server.start t.server;
  t.running <- true;
  t.applier <- Some (Thread.create applier_loop t)

let stop t =
  t.running <- false;
  locked t (fun () ->
      match t.sock with
      | Some fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      | None -> ());
  (match t.applier with
   | Some thread ->
     t.applier <- None;
     Thread.join thread
   | None -> ());
  Server.stop t.server

let wait_for_position ?(timeout = 5.0) t target =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if position t >= target then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()
