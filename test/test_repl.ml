(* Replication: WAL shipping end to end.

   Three layers of coverage.  Unit tests pin the [Durable] shipping
   surface (positions monotone across checkpoints and reopens, the
   Records/Snapshot/Error trichotomy of [ship_from], [reset_to]).  A
   QCheck property drives a primary through random workloads — including
   ADVANCE and DELETE — and checks that a follower replaying the shipped
   stream holds {e exactly} the primary's state at every position it
   syncs to, over both the record path and the snapshot-bootstrap path.
   Live tests then run real sockets: a primary and two replicas
   converging, expiration-exact replica reads, kill/restart catch-up
   from the persisted position, checkpoints that do not strand
   followers, and the v1-client version-mismatch answer. *)

open Expirel_core
open Expirel_storage
open Expirel_server
open Expirel_repl

let fin = Time.of_int

let with_temp_dir f =
  let dir = Filename.temp_dir "expirel" "repl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let with_temp_dirs2 f =
  with_temp_dir (fun a -> with_temp_dir (fun b -> f a b))

let db_state db =
  List.map (fun name -> name, Database.snapshot db name) (Database.table_names db)

let check_same_state msg a b =
  Alcotest.(check bool) (msg ^ ": clocks") true
    (Time.equal (Database.now a) (Database.now b));
  Alcotest.(check (list string)) (msg ^ ": tables")
    (Database.table_names a) (Database.table_names b);
  List.iter2
    (fun (name, ra) (_, rb) ->
      Alcotest.(check bool) (msg ^ ": contents of " ^ name) true
        (Relation.equal ra rb))
    (db_state a) (db_state b)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

(* An execution that must not even return a wire-level error. *)
let ok_response r =
  match ok r with
  | Wire.Err { message; _ } -> Alcotest.fail message
  | (_ : Wire.response) -> ()

(* ---------- Durable: positions and shipping ---------- *)

let insert table row texp =
  Wal.Insert { table; tuple = Tuple.ints row; texp = fin texp }

let populate t =
  List.iter (Durable.write t)
    [ Wal.Create_table { name = "pol"; columns = [ "uid"; "deg" ] };
      insert "pol" [ 1; 25 ] 10;
      insert "pol" [ 2; 25 ] 15;
      Wal.Advance (fin 4) ]

let test_position_monotone () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      Alcotest.(check int) "one position per record" 4 (Durable.position t);
      let before = Durable.position t in
      let (_ : int) = Durable.checkpoint t in
      Alcotest.(check int) "checkpoint moves no positions" before
        (Durable.position t);
      Alcotest.(check int) "snapshot base recorded" before
        (Durable.snapshot_position t);
      Durable.write t (insert "pol" [ 3; 35 ] 20);
      Alcotest.(check int) "positions continue past checkpoint" (before + 1)
        (Durable.position t);
      Durable.close t;
      let reopened = Durable.open_dir dir in
      Alcotest.(check int) "position survives reopen" (before + 1)
        (Durable.position reopened);
      Durable.close reopened)

let test_ship_from () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      (* A caught-up follower gets an empty record batch. *)
      (match Durable.ship_from t (Durable.position t) with
       | Ok (Durable.Records []) -> ()
       | _ -> Alcotest.fail "caught-up follower should get Records []");
      (* A cold follower within retention gets the whole stream. *)
      (match Durable.ship_from t 0 with
       | Ok (Durable.Records records) ->
         Alcotest.(check int) "full stream" (Durable.position t)
           (List.length records)
       | _ -> Alcotest.fail "cold follower within retention gets records");
      (* A follower from the future followed a different history. *)
      (match Durable.ship_from t (Durable.position t + 1) with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "position beyond the log must be an error");
      (match Durable.ship_from t (-1) with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "negative position must be an error");
      Durable.close t)

let test_ship_snapshot_beyond_retention () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir ~retention:2 dir in
      populate t;
      (* Retention 2 after 4 records: position 0 predates the tail. *)
      (match Durable.ship_from t 0 with
       | Ok (Durable.Snapshot { position; records }) ->
         Alcotest.(check int) "snapshot is at the head" (Durable.position t)
           position;
         (* The snapshot replays to the live state. *)
         with_temp_dir (fun dir2 ->
             let follower = Durable.open_dir dir2 in
             Durable.reset_to follower ~position records;
             Alcotest.(check int) "follower adopts the position" position
               (Durable.position follower);
             check_same_state "snapshot bootstrap" (Durable.database t)
               (Durable.database follower);
             Durable.close follower)
       | Ok (Durable.Records _) ->
         Alcotest.fail "position behind the retained tail must snapshot"
       | Error e -> Alcotest.fail e);
      (* ...while a follower inside the tail still streams records. *)
      (match Durable.ship_from t (Durable.position t - 2) with
       | Ok (Durable.Records records) ->
         Alcotest.(check int) "tail records" 2 (List.length records)
       | _ -> Alcotest.fail "follower inside the tail gets records");
      Durable.close t)

let test_checkpoint_keeps_tail () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      let (_ : int) = Durable.checkpoint t in
      (* The retained tail survives the checkpoint: a follower from
         before it still gets records, not a snapshot. *)
      (match Durable.ship_from t 0 with
       | Ok (Durable.Records records) ->
         Alcotest.(check int) "tail survives checkpoint" 4 (List.length records)
       | _ -> Alcotest.fail "checkpoint must not strand followers");
      Durable.close t)

(* ---------- property: shipped prefix == primary state ---------- *)

(* A workload is WAL records whose times count from the clock they are
   written at (Generators.at_clock). *)
let table_name = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]

let record_gen : Wal.record QCheck2.Gen.t =
  let open QCheck2.Gen in
  let value = map (fun v -> Tuple.ints [ v ]) (int_range 0 5) in
  frequency
    [ 2, map (fun name -> Wal.Create_table { name; columns = [ "v" ] }) table_name;
      1, map (fun name -> Wal.Drop_table name) table_name;
      6, map3 (fun table tuple ttl -> Wal.Insert { table; tuple; texp = fin ttl })
           table_name value (int_range 1 8);
      2, map2 (fun table tuple -> Wal.Delete { table; tuple }) table_name value;
      3, map (fun d -> Wal.Advance (fin d)) (int_range 0 3) ]

let workload = QCheck2.Gen.(list_size (int_range 1 40) record_gen)

(* Writes a record to the primary if it is valid there (invalid ones — a
   CREATE of an existing table, an INSERT into a missing one — never
   reach the log, so they are simply skipped). *)
let apply_op primary record =
  match Durable.write primary (Generators.at_clock (Durable.now primary) record) with
  | () -> ()
  | exception (Invalid_argument _ | Errors.Unknown_relation _) -> ()

let states_equal a b =
  Time.equal (Database.now a) (Database.now b)
  && Database.table_names a = Database.table_names b
  && List.for_all2
       (fun (_, ra) (_, rb) -> Relation.equal ra rb)
       (db_state a) (db_state b)

(* Drives a primary through the workload, syncing a follower via
   [ship_from]/[write]/[reset_to] every [sync_every] ops; the
   follower must hold the primary's exact state at every sync point.
   [retention] small + sparse syncs forces the snapshot path. *)
let follower_converges ~retention ~sync_every ops =
  with_temp_dirs2 (fun pdir fdir ->
      let primary = Durable.open_dir ~retention pdir in
      let follower = Durable.open_dir fdir in
      let sync () =
        match Durable.ship_from primary (Durable.position follower) with
        | Ok (Durable.Records records) ->
          List.iter (Durable.write follower) records
        | Ok (Durable.Snapshot { position; records }) ->
          Durable.reset_to follower ~position records
        | Error e -> failwith e
      in
      let converged = ref true in
      List.iteri
        (fun i op ->
          apply_op primary op;
          if (i + 1) mod sync_every = 0 then begin
            sync ();
            converged :=
              !converged
              && Durable.position follower = Durable.position primary
              && states_equal (Durable.database primary)
                   (Durable.database follower)
          end)
        ops;
      sync ();
      let final =
        states_equal (Durable.database primary) (Durable.database follower)
      in
      Durable.close primary;
      Durable.close follower;
      !converged && final)

let prop_replay_prefix_records =
  Generators.qtest "replaying the shipped stream tracks the primary exactly"
    ~count:100 workload
    (follower_converges ~retention:4096 ~sync_every:1)

let prop_replay_snapshot_path =
  Generators.qtest
    "a follower stranded past retention converges via snapshot bootstrap"
    ~count:100 workload
    (follower_converges ~retention:3 ~sync_every:7)

(* ---------- live: sockets, replicas, failures ---------- *)

let config ?data_dir ?(read_only = false) () =
  { Server.default_config with
    Server.host = "127.0.0.1";
    port = 0;
    data_dir;
    read_only
  }

let with_primary dir f =
  let server = Server.create ~config:(config ~data_dir:dir ()) () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let with_replica ~primary_port dir f =
  let replica =
    Replica.create ~data_dir:dir ~primary_host:"127.0.0.1" ~primary_port ()
  in
  Replica.start replica;
  Fun.protect ~finally:(fun () -> Replica.stop replica) (fun () -> f replica)

let with_client port f =
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let primary_position server =
  match Server.store server with
  | Some store -> Durable.position store
  | None -> Alcotest.fail "primary has no store"

let synced server replica =
  if not (Replica.wait_for_position replica (primary_position server)) then
    Alcotest.fail "replica did not catch up in time"

let rows_of = function
  | Wire.Rows { rows; _ } ->
    List.sort compare (List.map (fun (row, texp) -> row, texp) rows)
  | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r)

let query_rows port sql =
  with_client port (fun c -> rows_of (ok (Client.exec c sql)))

let test_two_replicas_converge () =
  with_temp_dir (fun pdir ->
      with_temp_dirs2 (fun rdir1 rdir2 ->
          with_primary pdir (fun server port ->
              with_replica ~primary_port:port rdir1 (fun r1 ->
                  with_replica ~primary_port:port rdir2 (fun r2 ->
                      with_client port (fun c ->
                          ok (Client.exec_ok c "CREATE TABLE pol (uid, deg)");
                          ok (Client.exec_ok c
                                "INSERT INTO pol VALUES (1, 25) EXPIRES 10");
                          ok (Client.exec_ok c
                                "INSERT INTO pol VALUES (2, 25) EXPIRES 15");
                          ok (Client.exec_ok c
                                "INSERT INTO pol VALUES (3, 35) EXPIRES 20");
                          ok (Client.exec_ok c "ADVANCE TO 12"));
                      synced server r1;
                      synced server r2;
                      let sql = "SELECT uid, deg FROM pol" in
                      let expect = query_rows port sql in
                      Alcotest.(check int) "expiration happened" 2
                        (List.length expect);
                      List.iter
                        (fun r ->
                          Alcotest.(check bool)
                            "replica reads equal primary reads" true
                            (query_rows (Replica.port r) sql = expect))
                        [ r1; r2 ];
                      (* The replica's registry carries every
                         replication field, read in process. *)
                      let m = Server.collect_metrics (Replica.server r1) in
                      let check_sample what name expect =
                        Alcotest.(check (float 0.)) what (float_of_int expect)
                          (Test_obs.one m name)
                      in
                      (match Expirel_obs.Registry.find m "expirel_repl_role" with
                       | Some { samples = [ (labels, _) ]; _ } ->
                         Alcotest.(check (list (pair string string)))
                           "role is replica" [ ("role", "replica") ] labels
                       | _ -> Alcotest.fail "replica role missing");
                      let position = Replica.position r1 in
                      Alcotest.(check int) "position is the primary's"
                        (Replica.source_position r1) position;
                      check_sample "position" "expirel_wal_position" position;
                      check_sample "source position"
                        "expirel_repl_source_position" position;
                      check_sample "no lag when synced"
                        "expirel_repl_lag_records" 0;
                      check_sample "no clock lag when synced"
                        "expirel_repl_clock_lag_ticks" 0;
                      check_sample "reconnects" "expirel_repl_reconnects_total"
                        (Replica.reconnects r1);
                      check_sample "snapshots" "expirel_repl_snapshots_total"
                        (Replica.snapshots_received r1);
                      check_sample "records applied" "expirel_repl_records_total"
                        (Replica.records_applied r1);
                      Alcotest.(check bool) "records were applied" true
                        (Replica.records_applied r1
                         + Replica.snapshots_received r1 > 0))))))

(* At every tick, a replica read must agree with the primary: no tuple
   whose expiration has passed on the primary's clock is ever served. *)
let test_replica_reads_expiration_exact () =
  with_temp_dirs2 (fun pdir rdir ->
      with_primary pdir (fun server port ->
          with_replica ~primary_port:port rdir (fun r ->
              with_client port (fun c ->
                  ok (Client.exec_ok c "CREATE TABLE pol (uid, deg)");
                  for uid = 1 to 8 do
                    ok
                      (Client.exec_ok c
                         (Printf.sprintf
                            "INSERT INTO pol VALUES (%d, %d) EXPIRES %d" uid
                            (20 + uid) (2 * uid)))
                  done;
                  for tick = 1 to 16 do
                    ok (Client.exec_ok c (Printf.sprintf "ADVANCE TO %d" tick));
                    synced server r;
                    let rows = query_rows (Replica.port r) "SELECT uid FROM pol" in
                    Alcotest.(check bool)
                      (Printf.sprintf "tick %d: replica == primary" tick)
                      true
                      (rows = query_rows port "SELECT uid FROM pol");
                    List.iter
                      (fun (_, texp) ->
                        Alcotest.(check bool)
                          (Printf.sprintf "tick %d: nothing expired" tick)
                          true
                          Time.(texp > fin tick))
                      rows
                  done))))

let test_replica_is_read_only () =
  with_temp_dirs2 (fun pdir rdir ->
      with_primary pdir (fun server port ->
          with_client port (fun c ->
              ok (Client.exec_ok c "CREATE TABLE pol (uid, deg)"));
          with_replica ~primary_port:port rdir (fun r ->
              synced server r;
              with_client (Replica.port r) (fun c ->
                  (match ok (Client.exec c "INSERT INTO pol VALUES (9, 9)") with
                   | Wire.Err { code = Wire.Exec_error; message } ->
                     Alcotest.(check bool) "message names the primary" true
                       (String.length message > 0)
                   | r -> Alcotest.fail ("write accepted: " ^ Wire.render_response r));
                  match ok (Client.exec c "SELECT uid FROM pol") with
                  | Wire.Rows _ -> ()
                  | r -> Alcotest.fail ("read refused: " ^ Wire.render_response r)))))

(* Kill a replica, keep writing, restart it over the same directory: it
   resumes from its persisted position and converges. *)
let test_kill_restart_catch_up () =
  with_temp_dirs2 (fun pdir rdir ->
      with_primary pdir (fun server port ->
          with_client port (fun c ->
              ok (Client.exec_ok c "CREATE TABLE pol (uid, deg)");
              ok (Client.exec_ok c "INSERT INTO pol VALUES (1, 25) EXPIRES 10"));
          let stopped_at =
            with_replica ~primary_port:port rdir (fun r ->
                synced server r;
                Replica.position r)
          in
          Alcotest.(check bool) "position persisted before the kill" true
            (stopped_at > 0);
          with_client port (fun c ->
              ok (Client.exec_ok c "INSERT INTO pol VALUES (2, 25) EXPIRES 15");
              ok (Client.exec_ok c "ADVANCE TO 12"));
          with_replica ~primary_port:port rdir (fun r ->
              Alcotest.(check int) "restart resumes from disk" stopped_at
                (Replica.position r);
              synced server r;
              Alcotest.(check bool) "caught up record-by-record" true
                (Replica.snapshots_received r = 0);
              Alcotest.(check bool) "converged after restart" true
                (query_rows (Replica.port r) "SELECT uid FROM pol"
                 = query_rows port "SELECT uid FROM pol"))))

(* CHECKPOINT over the wire compacts the primary without stranding a
   live follower — the retained tail keeps streaming records. *)
let test_checkpoint_over_the_wire () =
  with_temp_dirs2 (fun pdir rdir ->
      with_primary pdir (fun server port ->
          with_replica ~primary_port:port rdir (fun r ->
              with_client port (fun c ->
                  ok (Client.exec_ok c "CREATE TABLE pol (uid, deg)");
                  ok (Client.exec_ok c "INSERT INTO pol VALUES (1, 25) EXPIRES 10");
                  ok (Client.exec_ok c "INSERT INTO pol VALUES (2, 25) EXPIRES 15");
                  ok (Client.exec_ok c "ADVANCE TO 12");
                  synced server r;
                  (match ok (Client.exec c "CHECKPOINT") with
                   | Wire.Ok_msg m ->
                     Alcotest.(check bool) "checkpoint reports compaction" true
                       (String.length m > 0)
                   | resp ->
                     Alcotest.fail ("CHECKPOINT: " ^ Wire.render_response resp));
                  ok (Client.exec_ok c "INSERT INTO pol VALUES (3, 35) EXPIRES 20");
                  synced server r;
                  Alcotest.(check int) "follower was not stranded" 0
                    (Replica.snapshots_received r);
                  Alcotest.(check bool) "still converged" true
                    (query_rows (Replica.port r) "SELECT uid FROM pol"
                     = query_rows port "SELECT uid FROM pol")))))

(* A v1 client speaks to a v2 server and gets the typed answer, not a
   dropped connection or a junk frame. *)
let test_v1_client_gets_version_mismatch () =
  with_temp_dir (fun pdir ->
      with_primary pdir (fun _server port ->
          let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
          let sock = Unix.socket PF_INET SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect sock addr;
              (* Version byte 1 + the PING tag: a well-formed v1 frame. *)
              let (_ : int) = Frame.send sock "\x01\x05" in
              let payload, _ = Frame.recv (Frame.reader sock) in
              match Wire.decode_response payload with
              | Ok (Wire.Err { code = Wire.Version_mismatch; message }) ->
                Alcotest.(check bool) "diagnostic names both versions" true
                  (String.length message > 0)
              | Ok r ->
                Alcotest.fail ("expected version mismatch, got "
                               ^ Wire.render_response r)
              | Error e -> Alcotest.fail ("undecodable reply: " ^ e))))

(* The read-routing client: writes land on the primary, reads fan out to
   replicas, and a dead replica degrades to the remaining endpoints. *)
let test_repl_client_routing () =
  with_temp_dir (fun pdir ->
      with_temp_dirs2 (fun rdir1 rdir2 ->
          with_primary pdir (fun server port ->
              with_replica ~primary_port:port rdir1 (fun r1 ->
                  with_replica ~primary_port:port rdir2 (fun r2 ->
                      let endpoint port = { Repl_client.host = "127.0.0.1"; port } in
                      let client =
                        Repl_client.create ~primary:(endpoint port)
                          ~replicas:
                            [ endpoint (Replica.port r1);
                              endpoint (Replica.port r2) ]
                          ()
                      in
                      Fun.protect
                        ~finally:(fun () -> Repl_client.close client)
                        (fun () ->
                          ok_response
                            (Repl_client.exec client "CREATE TABLE pol (uid, deg)");
                          ok_response
                            (Repl_client.exec client
                               "INSERT INTO pol VALUES (1, 25) EXPIRES 10");
                          synced server r1;
                          synced server r2;
                          (* Reads answer from replicas... *)
                          for _ = 1 to 4 do
                            match ok (Repl_client.query client "SELECT uid FROM pol") with
                            | Wire.Rows { rows; _ } ->
                              Alcotest.(check int) "routed read sees the row" 1
                                (List.length rows)
                            | r -> Alcotest.fail (Wire.render_response r)
                          done;
                          (* ...writes do not. *)
                          (match
                             ok (Repl_client.query client "INSERT INTO pol VALUES (2, 2)")
                           with
                           | Wire.Err _ -> ()
                           | Wire.Rows _ | _ ->
                             (* Round-robin may land this on the primary
                                fallback only when every replica is
                                down; with both up it must be refused. *)
                             Alcotest.fail "a write routed through query succeeded");
                          (* The primary advertises its followers and
                             what it shipped, read in process. *)
                          let m = Server.collect_metrics server in
                          (match
                             Expirel_obs.Registry.find m "expirel_repl_role"
                           with
                           | Some { samples = [ (labels, _) ]; _ } ->
                             Alcotest.(check (list (pair string string)))
                               "primary role" [ ("role", "primary") ] labels
                           | _ -> Alcotest.fail "primary role missing");
                          Alcotest.(check (float 0.)) "two followers" 2.
                            (Test_obs.one m "expirel_repl_followers");
                          Alcotest.(check bool) "both replicas were served"
                            true
                            (Test_obs.one m "expirel_repl_snapshots_total"
                             +. Test_obs.one m "expirel_repl_records_total"
                             >= 2.);
                          (* Kill one replica: reads keep answering. *)
                          Replica.stop r1;
                          for _ = 1 to 4 do
                            match ok (Repl_client.query client "SELECT uid FROM pol") with
                            | Wire.Rows _ -> ()
                            | r -> Alcotest.fail (Wire.render_response r)
                          done))))))

(* Cross-node tracing: a traced read routed through [Repl_client]
   reaches a replica carrying the client's trace context, so the
   replica's spans record under the client's trace id, parented beneath
   the client-side rpc span; a traced write does the same on the
   primary.  Merging the three nodes' entries yields one Chrome trace
   whose processes cover every node. *)
let test_cross_node_trace () =
  with_temp_dirs2 (fun pdir rdir ->
      with_primary pdir (fun server port ->
          with_replica ~primary_port:port rdir (fun r ->
              with_client port (fun c ->
                  ok (Client.exec_ok c "CREATE TABLE pol (uid, deg)");
                  ok (Client.exec_ok c
                        "INSERT INTO pol VALUES (1, 25) EXPIRES 10"));
              synced server r;
              let endpoint port = { Repl_client.host = "127.0.0.1"; port } in
              let client =
                Repl_client.create ~primary:(endpoint port)
                  ~replicas:[ endpoint (Replica.port r) ] ()
              in
              Fun.protect
                ~finally:(fun () -> Repl_client.close client)
                (fun () ->
                  let tr = Expirel_obs.Trace.create () in
                  let tid = Expirel_obs.Trace.trace_id tr in
                  (match
                     ok (Repl_client.query ~trace:tr client
                           "SELECT uid FROM pol")
                   with
                   | Wire.Rows _ -> ()
                   | resp -> Alcotest.fail (Wire.render_response resp));
                  ok_response
                    (Repl_client.exec ~trace:tr client
                       "INSERT INTO pol VALUES (2, 35) EXPIRES 20");
                  let entries_of who port =
                    with_client port (fun c ->
                        match
                          List.filter
                            (fun (e : Expirel_obs.Trace_store.entry) ->
                              e.trace_id = tid)
                            (ok (Client.traces c 50))
                        with
                        | [] ->
                          Alcotest.fail
                            (who ^ " recorded nothing under the client's \
                                    trace id")
                        | es -> es)
                  in
                  let replica_entries =
                    entries_of "replica" (Replica.port r)
                  in
                  let primary_entries = entries_of "primary" port in
                  let replica_entry = List.hd replica_entries in
                  Alcotest.(check bool) "nodes named distinctly" true
                    (replica_entry.Expirel_obs.Trace_store.node
                     <> (List.hd primary_entries).node);
                  (* the client's rpc span is the remote spans' parent *)
                  let rpc_id =
                    match
                      List.find_opt
                        (fun (s : Expirel_obs.Trace.span) ->
                          String.length s.name >= 4
                          && String.sub s.name 0 4 = "rpc:")
                        (Expirel_obs.Trace.spans tr)
                    with
                    | Some s -> s.Expirel_obs.Trace.id
                    | None -> Alcotest.fail "client trace lost its rpc span"
                  in
                  let parse =
                    List.find
                      (fun (s : Expirel_obs.Trace.span) -> s.name = "parse")
                      replica_entry.spans
                  in
                  Alcotest.(check (option int))
                    "replica spans sit under the client's rpc span"
                    (Some rpc_id) parse.parent;
                  (* merged export: one trace id, every node a process *)
                  let store = Expirel_obs.Trace_store.create () in
                  Expirel_obs.Trace_store.finish store ~node:"client"
                    ~name:"routed read+write" tr;
                  let merged =
                    Expirel_obs.Trace_store.recent store 1
                    @ primary_entries @ replica_entries
                  in
                  let json = Expirel_obs.Trace_export.to_json merged in
                  let contains sub =
                    let n = String.length sub in
                    let rec go i =
                      i + n <= String.length json
                      && (String.sub json i n = sub || go (i + 1))
                    in
                    go 0
                  in
                  List.iter
                    (fun sub ->
                      Alcotest.(check bool) ("export carries: " ^ sub) true
                        (contains sub))
                    [ "\"traceEvents\":[";
                      "\"" ^ tid ^ "\"";
                      "process_name";
                      "\"client\"";
                      "\"" ^ replica_entry.node ^ "\"";
                      "\"" ^ (List.hd primary_entries).node ^ "\"" ]))))

(* A shipped DROP TABLE under a replica's watch: the primary refuses a
   drop only under its own watches, so the replica applies it.  The
   shipped ADVANCE that followed used to refresh the watch over the
   dropped table, and the uncaught [Unknown_relation] killed the
   replica's applier thread, stranding the replica at that position for
   good.  Now the drop ends the watch (no event marks the end) and the
   replica keeps applying; its watches keep delivering, and the ended
   watch's old owner cannot tear down a new watch of the same name. *)
let test_shipped_drop_ends_replica_watch () =
  let render = function
    | Wire.Row_expired { row; at; _ } ->
      Printf.sprintf "-%s@%s" (Tuple.to_string (Tuple.of_list row))
        (Time.to_string at)
    | _ -> "other"
  in
  with_temp_dirs2 (fun pdir rdir ->
      with_primary pdir (fun server port ->
          with_client port (fun c ->
              List.iter
                (fun sql -> ok (Client.exec_ok c sql))
                [ "CREATE TABLE a (x)";
                  "CREATE TABLE b (x)";
                  "INSERT INTO a VALUES (1) EXPIRES 20";
                  "INSERT INTO a VALUES (2) EXPIRES 3";
                  "INSERT INTO b VALUES (1) EXPIRES 5" ]);
          with_replica ~primary_port:port rdir (fun r ->
              synced server r;
              with_client (Replica.port r) (fun rc2 ->
                  with_client (Replica.port r) (fun rc ->
                      ok
                        (Client.subscribe rc ~name:"diff"
                           ~query:"SELECT x FROM a EXCEPT SELECT x FROM b");
                      with_client port (fun c ->
                          List.iter
                            (fun sql -> ok (Client.exec_ok c sql))
                            [ "DROP TABLE b"; "ADVANCE TO 8";
                              "INSERT INTO a VALUES (3) EXPIRES 30" ]);
                      synced server r;
                      Alcotest.(check bool) "replica reads equal primary reads"
                        true
                        (query_rows (Replica.port r) "SELECT x FROM a"
                         = query_rows port "SELECT x FROM a");
                      ok (Client.ping rc);
                      Alcotest.(check int) "the ended watch delivered nothing" 0
                        (List.length (Client.events rc));
                      (* The name is free again. *)
                      ok
                        (Client.subscribe rc2 ~name:"diff"
                           ~query:"SELECT x FROM a"));
                  with_client port (fun c -> ok (Client.exec_ok c "ADVANCE TO 25"));
                  synced server r;
                  ok (Client.ping rc2);
                  Alcotest.(check (list string)) "the new watch outlives the old owner"
                    [ "-<1>@20" ]
                    (List.map render (Client.events rc2))))))

(* The snapshot bootstrap path: a shipped snapshot that no longer holds
   a table ends the watches reading it, like a shipped DROP TABLE. *)
let test_snapshot_ends_replica_watch () =
  with_temp_dir (fun dir ->
      let store = Durable.open_dir dir in
      let interp = Expirel_sqlx.Interp.create ~store () in
      List.iter
        (fun sql ->
          match Expirel_sqlx.Interp.exec_sql interp sql with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        [ "CREATE TABLE a (x)"; "CREATE TABLE b (x)";
          "INSERT INTO a VALUES (1) EXPIRES 20";
          "INSERT INTO b VALUES (1) EXPIRES 5" ];
      let events = ref 0 in
      ok
        (Expirel_sqlx.Interp.subscribe interp ~name:"diff"
           (Expirel_sqlx.Parser.parse_statement
              "SELECT x FROM a EXCEPT SELECT x FROM b")
           (fun _ -> incr events));
      ok
        (Expirel_sqlx.Interp.install_snapshot interp ~position:9
           [ Wal.Create_table { name = "a"; columns = [ "x" ] };
             Wal.Insert { table = "a"; tuple = Tuple.ints [ 1 ]; texp = fin 20 } ]);
      ok (Expirel_sqlx.Interp.apply_records interp [ Wal.Advance (fin 30) ]);
      Alcotest.(check int) "no delivery from the ended watch" 0 !events;
      Alcotest.(check bool) "the name is free" false
        (Expirel_sqlx.Interp.unsubscribe interp "diff");
      Durable.close store)

(* The snapshot bootstrap path rebuilds every standing query over a
   table the snapshot still holds: a MAINTAINED view answers from the
   installed rows, and a watch's next clock move reports them, not the
   rows from before the snapshot. *)
let test_snapshot_reseeds_standing_queries () =
  with_temp_dir (fun dir ->
      let store = Durable.open_dir dir in
      let interp = Expirel_sqlx.Interp.create ~store () in
      let rows sql =
        match Expirel_sqlx.Interp.exec_sql interp sql with
        | Ok (Expirel_sqlx.Interp.Rows { relation; _ }) -> relation
        | Ok _ -> Alcotest.fail (sql ^ ": expected rows")
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun sql ->
          match Expirel_sqlx.Interp.exec_sql interp sql with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        [ "CREATE TABLE a (x)";
          "INSERT INTO a VALUES (1) EXPIRES 20";
          "CREATE MAINTAINED VIEW mv AS SELECT x, COUNT(*) FROM a GROUP BY x";
          "SELECT x, COUNT(*) FROM a GROUP BY x";
          "SELECT x, COUNT(*) FROM a GROUP BY x" ];
      let events = ref [] in
      ok
        (Expirel_sqlx.Interp.subscribe interp ~name:"w"
           (Expirel_sqlx.Parser.parse_statement "SELECT x FROM a")
           (function
             | Expirel_exec.Subscription.Row_expired { tuple; at; _ } ->
               events := Printf.sprintf "-%s@%s" (Tuple.to_string tuple) (Time.to_string at) :: !events
             | _ -> ()));
      ok
        (Expirel_sqlx.Interp.install_snapshot interp ~position:9
           [ Wal.Create_table { name = "a"; columns = [ "x" ] };
             Wal.Insert { table = "a"; tuple = Tuple.ints [ 2 ]; texp = fin 30 } ]);
      let query = rows "SELECT x, COUNT(*) FROM a GROUP BY x" in
      Alcotest.(check bool) "the query answers from the snapshot" true
        (Relation.equal query
           (Relation.of_list ~arity:2 [ (Tuple.ints [ 2; 1 ], fin 30) ]));
      Alcotest.(check bool) "SHOW VIEW serves the installed rows" true
        (Relation.equal query (rows "SHOW VIEW mv"));
      ok (Expirel_sqlx.Interp.apply_records interp [ Wal.Advance (fin 35) ]);
      Alcotest.(check (list string)) "the watch reports the installed row"
        [ "-<2>@30" ] (List.rev !events);
      Durable.close store)

(* Shipped records go through the replica's one write path: a record
   the replica's state refuses (its clock overtook it) is written as a
   no-op, so every shipped record still takes one log position, and the
   rest reach a MAINTAINED view like local writes. *)
let test_refused_shipped_records_keep_positions () =
  with_temp_dir (fun dir ->
      let store = Durable.open_dir dir in
      let interp = Expirel_sqlx.Interp.create ~store () in
      let rows sql =
        match Expirel_sqlx.Interp.exec_sql interp sql with
        | Ok (Expirel_sqlx.Interp.Rows { relation; _ }) -> relation
        | Ok _ -> Alcotest.fail (sql ^ ": expected rows")
        | Error e -> Alcotest.fail e
      in
      ok
        (Expirel_sqlx.Interp.apply_records interp
           [ Wal.Create_table { name = "t"; columns = [ "x" ] };
             Wal.Advance (fin 10) ]);
      (match
         Expirel_sqlx.Interp.exec_sql interp
           "CREATE MAINTAINED VIEW mv AS SELECT x FROM t"
       with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      ok
        (Expirel_sqlx.Interp.apply_records interp
           [ insert "t" [ 1 ] 5;
             Wal.Delete { table = "t"; tuple = Tuple.ints [ 2 ] };
             Wal.Advance (fin 4);
             insert "t" [ 3 ] 20 ]);
      Alcotest.(check int) "one position per shipped record" 6
        (Durable.position store);
      Alcotest.(check bool) "the clock stays" true
        (Time.equal (fin 10) (Durable.now store));
      let table = rows "SELECT x FROM t" in
      Alcotest.(check int) "only the live insert landed" 1 (Relation.cardinal table);
      Alcotest.(check bool) "the maintained view saw it" true
        (Relation.equal table (rows "SHOW VIEW mv"));
      Durable.close store;
      let reopened = Durable.open_dir dir in
      check_same_state "the replica's log replays" (Durable.database store)
        (Durable.database reopened);
      Durable.close reopened)

(* A shipped DROP TABLE ends a replica's MAINTAINED view reading the
   table, as it ends watches and constraints: the view is gone and its
   name is free again. *)
let test_shipped_drop_ends_maintained_view () =
  with_temp_dir (fun dir ->
      let store = Durable.open_dir dir in
      let interp = Expirel_sqlx.Interp.create ~store () in
      let exec sql = Expirel_sqlx.Interp.exec_sql interp sql in
      ok
        (Expirel_sqlx.Interp.apply_records interp
           [ Wal.Create_table { name = "t"; columns = [ "x" ] }; insert "t" [ 1 ] 5 ]);
      (match exec "CREATE MAINTAINED VIEW mv AS SELECT x FROM t" with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      ok (Expirel_sqlx.Interp.apply_records interp [ Wal.Drop_table "t" ]);
      (match exec "SHOW VIEW mv" with
       | Error msg -> Alcotest.(check string) "the view ended" "unknown view mv" msg
       | Ok _ -> Alcotest.fail "the view outlived its table");
      ok
        (Expirel_sqlx.Interp.apply_records interp
           [ Wal.Create_table { name = "t"; columns = [ "x" ] };
             Wal.Advance (fin 8) ]);
      (match exec "CREATE MAINTAINED VIEW mv AS SELECT x FROM t" with
       | Ok _ -> ()
       | Error e -> Alcotest.fail ("the name is not free: " ^ e));
      Durable.close store)

let suite =
  [ Alcotest.test_case "positions are monotone" `Quick test_position_monotone;
    Alcotest.test_case "ship_from trichotomy" `Quick test_ship_from;
    Alcotest.test_case "snapshot beyond retention" `Quick
      test_ship_snapshot_beyond_retention;
    Alcotest.test_case "checkpoint keeps the tail" `Quick
      test_checkpoint_keeps_tail;
    prop_replay_prefix_records;
    prop_replay_snapshot_path;
    Alcotest.test_case "two replicas converge" `Quick test_two_replicas_converge;
    Alcotest.test_case "replica reads are expiration-exact" `Quick
      test_replica_reads_expiration_exact;
    Alcotest.test_case "replica is read-only" `Quick test_replica_is_read_only;
    Alcotest.test_case "kill/restart catches up" `Quick
      test_kill_restart_catch_up;
    Alcotest.test_case "checkpoint over the wire" `Quick
      test_checkpoint_over_the_wire;
    Alcotest.test_case "v1 client gets a typed mismatch" `Quick
      test_v1_client_gets_version_mismatch;
    Alcotest.test_case "read-routing client" `Quick test_repl_client_routing;
    Alcotest.test_case "cross-node trace: one id, merged export" `Quick
      test_cross_node_trace;
    Alcotest.test_case "shipped DROP TABLE ends a replica watch" `Quick
      test_shipped_drop_ends_replica_watch;
    Alcotest.test_case "snapshot without a table ends its watches" `Quick
      test_snapshot_ends_replica_watch;
    Alcotest.test_case "a snapshot rebuilds surviving standing queries" `Quick
      test_snapshot_reseeds_standing_queries;
    Alcotest.test_case "refused shipped records keep the positions" `Quick
      test_refused_shipped_records_keep_positions;
    Alcotest.test_case "shipped DROP TABLE ends a maintained view" `Quick
      test_shipped_drop_ends_maintained_view ]
