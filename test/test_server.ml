(* End-to-end tests of the TCP server: results carry validity
   information over the wire, subscriptions push events at exact logical
   times, and — under N client threads hammering one server — the logical
   clock is monotone and no client ever receives an expired tuple. *)

open Expirel_core
open Expirel_storage
open Expirel_server
module Obs = Expirel_obs

let fin = Time.of_int

let with_server ?config f =
  let server = Server.create ?config () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let with_client port f =
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let exec client sql = ok (Client.exec client sql)

let load_profiles client =
  ok (Client.exec_ok client "CREATE TABLE pol (uid, deg)");
  ok (Client.exec_ok client "INSERT INTO pol VALUES (1, 25) EXPIRES 10");
  ok (Client.exec_ok client "INSERT INTO pol VALUES (2, 25) EXPIRES 15");
  ok (Client.exec_ok client "INSERT INTO pol VALUES (3, 35) EXPIRES 10")

(* ---------- smoke: results travel with their validity ---------- *)

let test_smoke () =
  with_server (fun server port ->
      with_client port (fun client ->
          ok (Client.ping client);
          load_profiles client;
          (match exec client "SELECT uid, deg FROM pol" with
           | Wire.Rows { columns; rows; texp_e; recomputed = _ } ->
             Alcotest.(check (list string)) "columns" [ "uid"; "deg" ] columns;
             Alcotest.(check int) "three rows" 3 (List.length rows);
             (* each row arrives with its own texp... *)
             List.iter
               (fun (row, texp) ->
                 match row with
                 | [ Value.Int 1; _ ] | [ Value.Int 3; _ ] ->
                   Alcotest.(check bool) "short-lived row" true (texp = fin 10)
                 | [ Value.Int 2; _ ] ->
                   Alcotest.(check bool) "long-lived row" true (texp = fin 15)
                 | _ -> Alcotest.fail "unexpected row")
               rows;
             (* ...and the whole result with texp(e): a monotone query
                is maintainable by local expiration forever *)
             Alcotest.(check bool) "monotone texp(e) = inf" true (texp_e = Time.Inf)
           | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r));
          (* a non-monotone query's texp(e) is finite: the COUNT per
             degree changes the moment the first member expires *)
          (match exec client "SELECT deg, COUNT(*) FROM pol GROUP BY deg" with
           | Wire.Rows { texp_e; _ } ->
             Alcotest.(check bool) "aggregate texp(e) is finite" true
               (Time.is_finite texp_e)
           | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r));
          (* a parse error is an answer, not a dropped connection *)
          (match exec client "SELEKT 1" with
           | Wire.Err { code = Wire.Parse_error; _ } -> ()
           | r -> Alcotest.fail ("expected parse error, got " ^ Wire.render_response r));
          let m = Server.collect_metrics server in
          Alcotest.(check bool) "requests counted" true
            (Test_obs.total m "expirel_requests_total" >= 6.);
          Alcotest.(check (float 0.)) "one active connection" 1.
            (Test_obs.total m "expirel_connections_active")))

(* ---------- subscriptions: exact logical times, in order ---------- *)

let test_subscription_event_order () =
  with_server (fun _server port ->
      with_client port (fun client ->
          load_profiles client;
          ok (Client.subscribe client ~name:"watch" ~query:"SELECT uid FROM pol");
          ok (Client.exec_ok client "ADVANCE TO 20");
          (* the events were pushed before the ADVANCE was acknowledged *)
          let events = Client.events client in
          let expired =
            List.filter_map
              (function
                | Wire.Row_expired { subscription = "watch"; row; at } ->
                  Some (row, at)
                | _ -> None)
              events
          in
          Alcotest.(check int) "all three rows expired" 3 (List.length expired);
          let ats = List.map snd expired in
          Alcotest.(check bool) "exact logical times" true
            (List.sort compare ats = [ fin 10; fin 10; fin 15 ]);
          Alcotest.(check bool) "delivered in logical-time order" true
            (ats = List.sort Time.compare ats);
          (* uid 2 is the one that lives to 15 *)
          (match List.rev expired with
           | ([ Value.Int 2 ], at) :: _ ->
             Alcotest.(check bool) "last event is uid 2 at 15" true (at = fin 15)
           | _ -> Alcotest.fail "wrong final event");
          ok (Client.unsubscribe client "watch")))

(* Writes reach a watch: subscribed to SELECT sid FROM s while s holds
   row 1 (texp 10), the client sees row 2's insert and row 1's delete
   at the clock, and the ADVANCE then expires only row 2 — never the
   deleted row 1.  Between the two writes the fan-out forecast counts
   both rows. *)
let test_writes_reach_watch () =
  with_server (fun _server port ->
      with_client port (fun client ->
          ok (Client.exec_ok client "CREATE TABLE s (sid)");
          ok (Client.exec_ok client "INSERT INTO s VALUES (1) EXPIRES 10");
          ok (Client.subscribe client ~name:"w" ~query:"SELECT sid FROM s");
          ok (Client.exec_ok client "INSERT INTO s VALUES (2) EXPIRES 5");
          Alcotest.(check int) "forecast sees the inserted row" 2
            (ok (Client.horizon client)).Expirel_obs.Horizon.fanout_events;
          ok (Client.exec_ok client "DELETE FROM s WHERE sid = 1");
          ok (Client.exec_ok client "ADVANCE TO 20");
          let render = function
            | Wire.Row_expired { row; at; _ } ->
              Printf.sprintf "-%s@%s" (Tuple.to_string (Tuple.of_list row))
                (Time.to_string at)
            | Wire.Row_appeared { row; texp; at; _ } ->
              Printf.sprintf "+%s~%s@%s" (Tuple.to_string (Tuple.of_list row))
                (Time.to_string texp) (Time.to_string at)
            | Wire.Refreshed { at; _ } -> "refresh@" ^ Time.to_string at
          in
          Alcotest.(check (list string)) "insert, delete, then expiry"
            [ "+<2>~5@0"; "-<1>@0"; "-<2>@5" ]
            (List.map render (Client.events client))))

let test_unsubscribe_ownership () =
  (* A connection may only tear down its own subscriptions. *)
  with_server (fun _server port ->
      with_client port (fun c1 ->
          with_client port (fun c2 ->
              ok (Client.exec_ok c1 "CREATE TABLE t (x)");
              ok (Client.subscribe c1 ~name:"mine" ~query:"SELECT x FROM t");
              (match Client.unsubscribe c2 "mine" with
               | Error _ -> ()
               | Ok () -> Alcotest.fail "foreign unsubscribe succeeded");
              ok (Client.unsubscribe c1 "mine"))))

(* A non-monotone watch reruns its plan at texp(e): dropping a table it
   reads used to fail every later ADVANCE with "subscription delivery:
   unknown relation b", re-firing the events before the refresh each
   time.  The server now refuses the drop while the watch stands. *)
let test_drop_table_under_watch () =
  with_server (fun _server port ->
      with_client port (fun client ->
          List.iter
            (fun sql -> ok (Client.exec_ok client sql))
            [ "CREATE TABLE a (x)";
              "CREATE TABLE b (x)";
              "INSERT INTO a VALUES (1) EXPIRES 20";
              "INSERT INTO a VALUES (2) EXPIRES 3";
              "INSERT INTO b VALUES (1) EXPIRES 5" ];
          ok
            (Client.subscribe client ~name:"diff"
               ~query:"SELECT x FROM a EXCEPT SELECT x FROM b");
          (match exec client "DROP TABLE b" with
           | Wire.Err { message; _ } ->
             Alcotest.(check string) "refusal names the watch"
               "table b is read by subscription diff" message
           | r -> Alcotest.fail ("drop accepted: " ^ Wire.render_response r));
          ok (Client.exec_ok client "ADVANCE TO 8");
          let render = function
            | Wire.Row_expired { row; at; _ } ->
              Printf.sprintf "-%s@%s" (Tuple.to_string (Tuple.of_list row))
                (Time.to_string at)
            | Wire.Row_appeared { row; at; _ } ->
              Printf.sprintf "+%s@%s" (Tuple.to_string (Tuple.of_list row))
                (Time.to_string at)
            | Wire.Refreshed { at; _ } -> "refresh@" ^ Time.to_string at
          in
          Alcotest.(check (list string)) "delivered once, refresh included"
            [ "-<2>@3"; "refresh@5"; "+<1>@5" ]
            (List.map render (Client.events client));
          ok (Client.unsubscribe client "diff");
          ok (Client.exec_ok client "DROP TABLE b");
          ok (Client.exec_ok client "ADVANCE TO 30")))

(* ---------- concurrency: monotone clock, no expired tuples ---------- *)

let test_concurrent_clients () =
  let threads = 8 in
  let rounds = 25 in
  with_server (fun _server port ->
      with_client port (fun admin ->
          ok (Client.exec_ok admin "CREATE TABLE s (sid, owner)"));
      let failures = Array.make threads None in
      let fail t msg = if failures.(t) = None then failures.(t) <- Some msg in
      let worker t () =
        with_client port (fun client ->
            (* never Alcotest.fail off the main thread — record instead *)
            let expect_ok what = function
              | Ok () -> ()
              | Error e -> fail t (what ^ ": " ^ e)
            in
            let run sql =
              match Client.exec client sql with
              | Ok r -> r
              | Error e ->
                fail t (sql ^ ": " ^ e);
                Wire.Bye
            in
            let last_now = ref (fin 0) in
            let observe_now () =
              match run "SHOW NOW" with
              | Wire.Ok_msg m ->
                (match int_of_string_opt m with
                 | Some n ->
                   let now = fin n in
                   if Time.compare now !last_now < 0 then
                     fail t "clock ran backwards";
                   last_now := now
                 | None -> fail t ("unparsable SHOW NOW: " ^ m))
              | r -> fail t ("SHOW NOW: " ^ Wire.render_response r)
            in
            for i = 1 to rounds do
              (* writes: one row expiring past any clock this test can
                 reach, one short-lived row (TTL is relative, so it is
                 valid whatever the clock says by now) *)
              expect_ok "insert"
                (Client.exec_ok client
                   (Printf.sprintf
                      "INSERT INTO s VALUES (%d, %d) EXPIRES 1000000"
                      ((t * rounds) + i) t));
              expect_ok "insert ttl"
                (Client.exec_ok client
                   (Printf.sprintf "INSERT INTO s VALUES (%d, %d) TTL 2"
                      (-((t * rounds) + i)) t));
              if i mod 5 = 0 then expect_ok "tick" (Client.exec_ok client "TICK");
              observe_now ();
              (* the clock observed above is a lower bound for the clock
                 at which this SELECT runs: every returned tuple must
                 still be alive, i.e. texp strictly beyond it *)
              (match run "SELECT sid, owner FROM s" with
               | Wire.Rows { rows; _ } ->
                 List.iter
                   (fun (_, texp) ->
                     if Time.compare texp !last_now <= 0 then
                       fail t "received an expired tuple")
                   rows
               | Wire.Err { message; _ } -> fail t ("SELECT failed: " ^ message)
               | r -> fail t ("SELECT: " ^ Wire.render_response r));
              observe_now ()
            done)
      in
      let ts = List.init threads (fun t -> Thread.create (worker t) ()) in
      List.iter Thread.join ts;
      Array.iteri
        (fun t -> function
          | Some msg -> Alcotest.fail (Printf.sprintf "client %d: %s" t msg)
          | None -> ())
        failures;
      (* the server survived: it still answers, and the clock advanced *)
      with_client port (fun client ->
          match exec client "SHOW NOW" with
          | Wire.Ok_msg m ->
            Alcotest.(check bool) "clock advanced" true (int_of_string m > 0)
          | r -> Alcotest.fail (Wire.render_response r)))

(* ---------- limits: connection cap and request timeout ---------- *)

let test_connection_cap () =
  let config = { Server.default_config with max_connections = 2 } in
  with_server ~config (fun _server port ->
      with_client port (fun c1 ->
          with_client port (fun c2 ->
              ok (Client.ping c1);
              ok (Client.ping c2);
              with_client port (fun c3 ->
                  match Client.ping c3 with
                  | Error e ->
                    Alcotest.(check bool) "refused as overloaded" true
                      (String.length e > 0)
                  | Ok () -> Alcotest.fail "third connection admitted over cap"))));
  (* a slot frees up once a capped connection closes *)
  with_server ~config (fun _server port ->
      with_client port (fun c1 -> ok (Client.ping c1));
      with_client port (fun c2 -> ok (Client.ping c2)))

let test_request_timeout () =
  let config = { Server.default_config with request_timeout = 0.15 } in
  with_server ~config (fun server port ->
      with_client port (fun client ->
          ok (Client.exec_ok client "CREATE TABLE t (x)");
          (* an in-process writer wedges the database... *)
          Rwlock.write_lock (Server.lock server);
          Fun.protect
            ~finally:(fun () -> Rwlock.write_unlock (Server.lock server))
            (fun () ->
              match exec client "SELECT x FROM t" with
              | Wire.Err { code = Wire.Timeout; _ } -> ()
              | r ->
                Alcotest.fail ("expected timeout, got " ^ Wire.render_response r));
          (* ...and service resumes once it lets go *)
          match exec client "SELECT x FROM t" with
          | Wire.Rows _ -> ()
          | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r)))

(* A receive timeout gives the connection up: the server's late reply
   must never answer the next request. *)
let test_client_timeout_closes () =
  with_server (fun server port ->
      let client = Client.connect ~timeout:0.2 ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          ok (Client.exec_ok client "CREATE TABLE t (x)");
          Rwlock.write_lock (Server.lock server);
          let late =
            Fun.protect
              ~finally:(fun () -> Rwlock.write_unlock (Server.lock server))
              (fun () -> Client.exec client "SELECT x FROM t")
          in
          Alcotest.(check (result unit string)) "receive timeout"
            (Error "receive timeout") (Result.map ignore late);
          (* the late rows reply is on its way: it answers nothing *)
          Thread.delay 0.1;
          Alcotest.(check (result unit string)) "ping on a dead connection"
            (Error "connection closed") (Client.ping client);
          (match Client.exec client "SELECT x FROM t" with
           | Error "connection closed" -> ()
           | Ok r -> Alcotest.fail ("answered with " ^ Wire.render_response r)
           | Error e -> Alcotest.fail e);
          with_client port (fun fresh ->
              match exec fresh "SELECT x FROM t" with
              | Wire.Rows _ -> ()
              | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r))))

(* ---------- observability over the wire ---------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_temp_dir f =
  let dir = Filename.temp_dir "expirel" "obs" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run_observable_workload client =
  load_profiles client;
  ok
    (Client.exec_ok client
       "CREATE VIEW deg_counts AS SELECT deg, COUNT(*) FROM pol GROUP BY deg");
  List.iter
    (fun sql ->
      match exec client sql with
      | Wire.Rows _ -> ()
      | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r))
    [ "SELECT uid, deg FROM pol";
      "SELECT deg, COUNT(*) FROM pol GROUP BY deg" ];
  ok (Client.exec_ok client "ADVANCE TO 12")

(* METRICS must expose, in valid Prometheus text format, the request
   latency histogram (with the once-missing 500 ms bucket), per-operator
   eval time, per-stage time, eager expiration churn and the
   expiration-domain gauges. *)
let test_metrics_exposition () =
  with_server (fun server port ->
      with_client port (fun client ->
          run_observable_workload client;
          let text = ok (Client.metrics client) in
          List.iter
            (fun sub ->
              Alcotest.(check bool) ("exposes: " ^ sub) true
                (contains ~sub text))
            [ "# TYPE expirel_request_duration_seconds histogram";
              "expirel_request_duration_seconds_bucket{le=\"0.5\"}";
              "expirel_request_duration_seconds_bucket{le=\"+Inf\"}";
              "expirel_eval_operator_duration_seconds_bucket\
               {operator=\"seq-scan\"";
              "expirel_eval_operator_duration_seconds_bucket\
               {operator=\"aggregate\"";
              "expirel_request_stage_duration_seconds_bucket{stage=\"parse\"";
              "expirel_request_stage_duration_seconds_bucket{stage=\"eval\"";
              "expirel_request_stage_duration_seconds_bucket\
               {stage=\"rwlock_wait\"";
              "expirel_tuples_expired_total{mode=\"eager\"} 2";
              "expirel_expiration_index_depth ";
              "expirel_view_texp_horizon_ticks{view=\"deg_counts\"}";
              "expirel_connections_active 1" ];
          (* every line is a comment or a `name{labels} value` sample *)
          String.split_on_char '\n' text
          |> List.iter (fun line ->
                 if line <> "" && line.[0] <> '#' then
                   match String.rindex_opt line ' ' with
                   | None -> Alcotest.failf "unparsable line %S" line
                   | Some i ->
                     let v =
                       String.sub line (i + 1) (String.length line - i - 1)
                     in
                     if v <> "+Inf" && float_of_string_opt v = None then
                       Alcotest.failf "bad sample value in %S" line);
          (* no durable store: no replication provider, so the repl
             families are declared but sample-less *)
          Alcotest.(check bool) "repl lag declared" true
            (contains ~sub:"# TYPE expirel_repl_lag_records gauge" text);
          String.split_on_char '\n' text
          |> List.iter (fun line ->
                 Alcotest.(check bool) "no repl sample without a store"
                   false
                   (String.length line > 13
                    && String.sub line 0 13 = "expirel_repl_"));
          (* the registry read in process agrees with the page: the
             latency histogram has its 500 ms bound, and expirations
             sum over their removal mode *)
          let m = Server.collect_metrics server in
          (match Obs.Registry.find m "expirel_request_duration_seconds" with
           | Some { samples = [ (_, Obs.Registry.Histogram_sample h) ]; _ } ->
             Alcotest.(check bool) "latency has the 500ms bucket" true
               (Array.mem 500_000 h.Obs.Instrument.Histogram.bounds)
           | _ -> Alcotest.fail "no latency histogram");
          Alcotest.(check (float 0.)) "expired count agrees" 2.
            (Test_obs.total m "expirel_tuples_expired_total")))

(* The registry prices the standing GROUP BY COUNT state: promoted
   queries, and the groups every standing COUNT holds.  A catalog change
   ends the promoted ones. *)
let test_standing_aggregate_metrics () =
  with_server (fun server port ->
      with_client port (fun client ->
          load_profiles client;
          ok (Client.exec_ok client "CREATE INDEX ON pol (uid)");
          let check label expected =
            let m = Server.collect_metrics server in
            Alcotest.(check (pair (float 0.) (float 0.))) label expected
              ( Test_obs.one m "expirel_standing_aggregates",
                Test_obs.one m "expirel_standing_groups" )
          in
          let twice sql = ignore (exec client sql : Wire.response); ignore (exec client sql : Wire.response) in
          check "none before" (0., 0.);
          twice "SELECT deg, COUNT(*) FROM pol GROUP BY deg";
          check "one entry of two groups" (1., 2.);
          twice "SELECT uid, COUNT(*) FROM pol GROUP BY uid";
          check "two entries of five groups" (2., 5.);
          ok (Client.exec_ok client "DROP INDEX ON pol (uid)");
          check "a catalog change ends them" (0., 0.)))

(* On a lazy server the same churn is labeled mode="lazy" and counted
   when VACUUM reclaims, not when the clock passes texp. *)
let test_metrics_lazy_mode () =
  let config = { Server.default_config with policy = Database.Lazy } in
  with_server ~config (fun _server port ->
      with_client port (fun client ->
          load_profiles client;
          ok (Client.exec_ok client "ADVANCE TO 20");
          ok (Client.exec_ok client "VACUUM");
          let text = ok (Client.metrics client) in
          Alcotest.(check bool) "lazy churn labeled" true
            (contains ~sub:"expirel_tuples_expired_total{mode=\"lazy\"} 3" text);
          Alcotest.(check bool) "no eager samples on a lazy server" false
            (contains ~sub:"{mode=\"eager\"}" text)))

(* The expirations counter reads the storage's own count: after each
   eager clock move and each lazy VACUUM it has moved exactly as far as
   Database.expired_total since the server started. *)
let test_expired_counter_tracks_storage () =
  List.iter
    (fun (policy, steps) ->
      let config = { Server.default_config with policy } in
      with_server ~config (fun server port ->
          let db = Expirel_sqlx.Interp.database (Server.interp server) in
          let start = Database.expired_total db in
          let check label =
            Alcotest.(check (float 0.)) label
              (float_of_int (Database.expired_total db - start))
              (Test_obs.total (Server.collect_metrics server)
                 "expirel_tuples_expired_total")
          in
          with_client port (fun client ->
              load_profiles client;
              List.iter
                (fun sql ->
                  ok (Client.exec_ok client sql);
                  check sql)
                steps;
              Alcotest.(check int) "all three expired" 3
                (Database.expired_total db - start))))
    [ (Database.Eager, [ "TICK"; "ADVANCE TO 10"; "TICK"; "ADVANCE TO 15"; "TICK" ]);
      (Database.Lazy, [ "ADVANCE TO 12"; "VACUUM"; "ADVANCE TO 20"; "VACUUM" ]) ]

(* A durable primary has WAL and replication-lag gauges with samples. *)
let test_metrics_durable_primary () =
  with_temp_dir (fun dir ->
      let config = { Server.default_config with data_dir = Some dir } in
      with_server ~config (fun server port ->
          with_client port (fun client ->
              load_profiles client;
              let text = ok (Client.metrics client) in
              List.iter
                (fun sub ->
                  Alcotest.(check bool) ("exposes: " ^ sub) true
                    (contains ~sub text))
                [ "expirel_wal_position ";
                  "expirel_repl_lag_records 0";
                  "expirel_repl_followers 0" ]);
          (* Health skips a rule whose metric is absent, so every metric
             a default rule reads must be registered, and sampled, here:
             the replication provider is installed. *)
          let m = Server.collect_metrics server in
          List.iter
            (fun (rule : Obs.Health.rule) ->
              List.iter
                (fun name ->
                  Alcotest.(check bool) (rule.name ^ " reads " ^ name) true
                    (Obs.Registry.values m name <> []))
                (Test_obs.rule_metrics rule))
            Server.default_health_rules))

(* Every counter a server reports is a registry sample, and reconciles
   exactly with what its one client saw: connections, requests, errors,
   bytes each way (pushed events included), events pushed, expirations
   summed over their removal mode, and latency observations. *)
let test_registry_counters () =
  with_server (fun server port ->
      with_client port (fun client ->
          let requests = ref 0 and sent = ref 0 and received = ref 0 in
          let send req =
            let response, s, r = ok (Client.exchange client req) in
            incr requests;
            sent := !sent + s;
            received := !received + r;
            response
          in
          List.iter
            (fun sql -> ignore (send (Wire.Exec sql)))
            [ "CREATE TABLE pol (uid, deg)";
              "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
              "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
              "INSERT INTO pol VALUES (3, 35) EXPIRES 10" ];
          ignore
            (send (Wire.Subscribe { name = "watch"; query = "SELECT uid FROM pol" }));
          ignore (send (Wire.Exec "ADVANCE TO 12"));
          (match send (Wire.Exec "SELEKT 1") with
           | Wire.Err _ -> ()
           | r -> Alcotest.fail ("expected an error, got " ^ Wire.render_response r));
          let events = Client.events client in
          let pushed_bytes =
            List.fold_left
              (fun acc e ->
                acc + String.length (Wire.encode_response (Wire.Event e)) + 4)
              0 events
          in
          let m = Server.collect_metrics server in
          let check what name expect =
            Alcotest.(check (float 0.)) what (float_of_int expect)
              (Test_obs.total m name)
          in
          check "connections" "expirel_connections_total" 1;
          check "open connections" "expirel_connections_active" 1;
          check "requests" "expirel_requests_total" !requests;
          check "errors" "expirel_errors_total" 1;
          check "bytes in" "expirel_bytes_in_total" !sent;
          check "bytes out" "expirel_bytes_out_total" (!received + pushed_bytes);
          check "events pushed" "expirel_events_pushed_total" 2;
          check "events received" "expirel_events_pushed_total"
            (List.length events);
          check "tuples expired" "expirel_tuples_expired_total" 2;
          check "latency observations" "expirel_request_duration_seconds"
            !requests))

(* SLOW over the wire: the span breakdown of the slowest statements. *)
let test_slow_queries_e2e () =
  with_server (fun _server port ->
      with_client port (fun client ->
          run_observable_workload client;
          let qs = ok (Client.slow_queries client 3) in
          Alcotest.(check int) "asked for three" 3 (List.length qs);
          (match qs with
           | a :: b :: c :: _ ->
             Alcotest.(check bool) "slowest first" true
               (a.Obs.Trace_store.total_us >= b.Obs.Trace_store.total_us
                && b.total_us >= c.total_us)
           | _ -> assert false);
          let all = ok (Client.slow_queries client 100) in
          let sel =
            match
              List.find_opt
                (fun (e : Obs.Trace_store.entry) ->
                  e.name = "SELECT uid, deg FROM pol")
                all
            with
            | Some e -> e
            | None -> Alcotest.fail "traced SELECT not in slow log"
          in
          let names = List.map (fun (s : Obs.Trace.span) -> s.name) sel.spans in
          List.iter
            (fun stage ->
              Alcotest.(check bool) ("span: " ^ stage) true
                (List.mem stage names))
            [ "parse"; "lower"; "plan"; "eval"; "rwlock_wait"; "op:seq-scan";
              "op:project" ];
          List.iter
            (fun (s : Obs.Trace.span) ->
              Alcotest.(check bool) "span within request" true
                (s.start_us >= 0 && s.start_us + s.duration_us <= sel.total_us))
            sel.spans;
          (* every slow entry is stamped with its request's trace id,
             so it joins against the TRACE export *)
          Alcotest.(check bool) "trace id stamped" true
            (String.length sel.trace_id > 0);
          let traces = ok (Client.traces client 100) in
          match
            List.find_opt
              (fun (e : Obs.Trace_store.entry) -> e.trace_id = sel.trace_id)
              traces
          with
          | Some e ->
            Alcotest.(check string) "joined trace is the same statement"
              sel.name e.name
          | None -> Alcotest.fail "slow entry's trace id not in TRACE"))

(* EXPLAIN ANALYZE travels as a plain Exec: the server runs the profiled
   execution and ships the annotated plan as a message. *)
let test_explain_analyze_e2e () =
  with_server (fun _server port ->
      with_client port (fun client ->
          load_profiles client;
          match exec client "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25" with
          | Wire.Ok_msg text ->
            List.iter
              (fun sub ->
                Alcotest.(check bool) ("reports: " ^ sub) true
                  (contains ~sub text))
              [ "seq-scan pol"; "(est="; "rows=2"; "dropped=0"; "time=";
                "rows: 2"; "total:" ]
          | r -> Alcotest.fail ("expected a message, got " ^ Wire.render_response r)))

(* TRACE over the wire: recent request traces, newest first, stamped
   with the node name; Exec_traced records under the caller's trace id
   with the caller's span as root parent. *)
let test_trace_e2e () =
  let config = { Server.default_config with node_name = "primary" } in
  with_server ~config (fun _server port ->
      with_client port (fun client ->
          run_observable_workload client;
          let entries = ok (Client.traces client 100) in
          Alcotest.(check bool) "workload recorded" true
            (List.length entries >= 5);
          (match Client.traces client 2 with
           | Ok [ a; b ] ->
             Alcotest.(check bool) "newest first" true
               (a.Obs.Trace_store.started_at >= b.Obs.Trace_store.started_at)
           | Ok es -> Alcotest.failf "asked for 2, got %d" (List.length es)
           | Error e -> Alcotest.fail e);
          let sel =
            match
              List.find_opt
                (fun (e : Obs.Trace_store.entry) ->
                  e.name = "SELECT uid, deg FROM pol")
                entries
            with
            | Some e -> e
            | None -> Alcotest.fail "traced SELECT not in the store"
          in
          Alcotest.(check string) "node name stamped" "primary" sel.node;
          Alcotest.(check bool) "trace id minted" true
            (String.length sel.trace_id > 0);
          let names = List.map (fun (s : Obs.Trace.span) -> s.name) sel.spans in
          List.iter
            (fun stage ->
              Alcotest.(check bool) ("span: " ^ stage) true
                (List.mem stage names))
            [ "parse"; "eval"; "op:seq-scan" ];
          (* operator spans carry their row counts as labels *)
          (match
             List.find_opt
               (fun (s : Obs.Trace.span) -> s.name = "op:seq-scan")
               sel.spans
           with
           | Some s ->
             Alcotest.(check (option string)) "rows label" (Some "3")
               (List.assoc_opt "rows" s.labels)
           | None -> Alcotest.fail "no seq-scan span");
          (* propagated context: the server's spans join the caller's
             trace, nested under the caller's span id *)
          let ctx = { Wire.trace_id = "shared-trace-1"; parent_span = 5 } in
          (match
             ok
               (Client.request client
                  (Wire.Exec_traced { sql = "SELECT uid FROM pol"; ctx }))
           with
           | Wire.Rows _ -> ()
           | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r));
          let entries = ok (Client.traces client 10) in
          match
            List.find_opt
              (fun (e : Obs.Trace_store.entry) ->
                e.trace_id = "shared-trace-1")
              entries
          with
          | None -> Alcotest.fail "propagated trace id not recorded"
          | Some e ->
            let parse =
              List.find (fun (s : Obs.Trace.span) -> s.name = "parse") e.spans
            in
            Alcotest.(check (option int))
              "top-level span under the caller's span" (Some 5)
              parse.parent))

(* HEALTH over the wire: a fresh server reads ok (cold metrics are
   skipped, not fired); custom rules breach on demand; the verdict is
   exported as a gauge. *)
let test_health_e2e () =
  with_server (fun _server port ->
      with_client port (fun client ->
          load_profiles client;
          match ok (Client.health client) with
          | { level = Ok; firing = [] } -> ()
          | { level; firing } ->
            Alcotest.failf "expected ok/[], got %s with %d firing"
              (Obs.Health.level_to_string level)
              (List.length firing)));
  let breach =
    { Expirel_obs.Health.name = "requests_seen";
      source = Expirel_obs.Health.Metric "expirel_requests_total";
      op = Expirel_obs.Health.Above;
      degraded = 1.0;
      critical = 1e9;
      help = "fires as soon as any request lands"
    }
  in
  let config = { Server.default_config with health_rules = [ breach ] } in
  with_server ~config (fun _server port ->
      with_client port (fun client ->
          ok (Client.ping client);
          (match ok (Client.health client) with
           | { level = Degraded; firing = [ f ] } ->
             Alcotest.(check string) "firing rule" "requests_seen" f.rule_name;
             Alcotest.(check bool) "observed value" true (f.value >= 1.0);
             Alcotest.(check string) "help carried" "fires as soon as any \
                                                     request lands"
               f.help
           | _ -> Alcotest.fail "expected one degraded firing rule");
          (* the verdict gauge reflects the last evaluation *)
          let text = ok (Client.metrics client) in
          Alcotest.(check bool) "health gauge exported" true
            (contains ~sub:"expirel_health_status 1" text)))

(* HORIZON over the wire: the forecast carries the subscription
   fan-out, its buckets verify against the ADVANCE that follows, and
   the expiration-storm rule fires *before* the drop — the whole point
   of a forward-looking page. *)
let test_horizon_e2e () =
  let module Horizon = Expirel_obs.Horizon in
  let total_live (r : Horizon.report) =
    List.fold_left (fun acc tb -> acc + Horizon.live tb) 0 r.Horizon.tables
  in
  let soon (r : Horizon.report) =
    List.fold_left
      (fun acc tb -> acc + Horizon.expiring_within tb r.Horizon.window)
      0 r.Horizon.tables
  in
  with_server (fun server port ->
      let expired () =
        int_of_float
          (Test_obs.total (Server.collect_metrics server)
             "expirel_tuples_expired_total")
      in
      with_client port (fun client ->
          load_profiles client;
          ok (Client.subscribe client ~name:"watch" ~query:"SELECT uid FROM pol");
          let r = ok (Client.horizon client) in
          Alcotest.(check int) "three live rows" 3 (total_live r);
          (* texps 10, 10, 15 all sit inside the default 16-tick window *)
          Alcotest.(check int) "all three expire soon" 3 (soon r);
          Alcotest.(check int) "fan-out forecast: one event per drop" 3
            r.Horizon.fanout_events;
          (* the textual SHOW HORIZON goes through the same fan-out-aware
             path, so both surfaces agree *)
          (match exec client "SHOW HORIZON" with
           | Wire.Ok_msg m ->
             Alcotest.(check bool) "SHOW HORIZON reports the fan-out" true
               (contains ~sub:"fanout=3" m)
           | resp ->
             Alcotest.fail ("SHOW HORIZON: " ^ Wire.render_response resp));
          (* per-table restriction, and unknown tables answer Err *)
          let rp = ok (Client.horizon ~table:"pol" client) in
          Alcotest.(check int) "restricted report names one table" 1
            (List.length rp.Horizon.tables);
          (match Client.horizon ~table:"ghost" client with
           | Error _ -> ()
           | Ok _ -> Alcotest.fail "unknown table accepted");
          (* grow the storm: 8 more rows all expiring inside the window *)
          for i = 10 to 17 do
            ok
              (Client.exec_ok client
                 (Printf.sprintf "INSERT INTO pol VALUES (%d, 50) EXPIRES 10" i))
          done;
          (* the rule fires NOW — the clock has not moved, nothing has
             expired yet, the page predicts the storm *)
          (match ok (Client.health client) with
           | { level = Critical; firing } ->
             Alcotest.(check bool) "expiration_storm names itself" true
               (List.exists
                  (fun (f : Obs.Health.firing) -> f.rule_name = "expiration_storm")
                  firing)
           | _ -> Alcotest.fail "storm not predicted before the drop");
          (* the forecast verifies: the ADVANCE drops exactly the
             predicted rows and delivers exactly the forecast events *)
          let before = ok (Client.horizon client) in
          let expired_before = expired () in
          ok (Client.exec_ok client "ADVANCE TO 20");
          Alcotest.(check int) "every predicted row dropped" (soon before)
            (expired () - expired_before);
          let delivered =
            List.length
              (List.filter
                 (function Wire.Row_expired _ -> true | _ -> false)
                 (Client.events client))
          in
          Alcotest.(check int) "delivered events match the forecast"
            before.Horizon.fanout_events delivered;
          let after = ok (Client.horizon client) in
          Alcotest.(check int) "nothing left in the window" 0 (soon after);
          (* and with the storm behind us, health reads ok again *)
          match ok (Client.health client) with
          | { level = Ok; _ } -> ()
          | _ -> Alcotest.fail "health still firing after the storm passed"))

(* The horizon families, build identity and uptime ride the Prometheus
   page, and the whole page passes the shared exposition lint. *)
let test_metrics_horizon_families () =
  with_server (fun _server port ->
      with_client port (fun client ->
          run_observable_workload client;
          let text = ok (Client.metrics client) in
          Test_obs.check_exposition ~what:"server metrics page" text;
          List.iter
            (fun sub ->
              Alcotest.(check bool) ("exposes: " ^ sub) true
                (contains ~sub text))
            [ "# TYPE expirel_horizon_rows histogram";
              "expirel_horizon_rows_bucket{table=\"pol\",le=\"+Inf\"}";
              "expirel_horizon_fanout_events";
              "expirel_horizon_window_ticks 16";
              "expirel_churn_rate{kind=\"arrival\"}";
              "expirel_churn_rate{kind=\"expiration\"}";
              "expirel_horizon_expiring_soon";
              "expirel_build_info{version=\"" ^ Metrics.build_version
              ^ "\",wire_version=\"" ^ string_of_int Wire.version ^ "\"";
              "expirel_uptime_seconds" ]))

(* The plan cache's counters ride the Prometheus page, including the requests_total denominator the
   hit-ratio health rule divides by. *)
let test_plan_cache_metrics () =
  with_server (fun server port ->
      with_client port (fun client ->
          load_profiles client;
          let counted () =
            let s = Expirel_sqlx.Interp.plan_cache_stats (Server.interp server) in
            s.Expirel_sqlx.Interp.hits + s.Expirel_sqlx.Interp.misses
          in
          (* hits + misses rise by exactly one per query request, and by
             nothing for a write or a text that does not parse *)
          let counts_once ~queries request =
            let before = counted () in
            let reply = ok (Client.request client request) in
            Alcotest.(check int)
              (Wire.render_response reply ^ ": counted")
              (before + queries) (counted ())
          in
          Alcotest.(check int) "writes count nothing" 0 (counted ());
          List.iter
            (fun sql ->
              let before = counted () in
              (match exec client sql with
               | Wire.Rows _ -> ()
               | r -> Alcotest.fail ("expected rows, got " ^ Wire.render_response r));
              Alcotest.(check int) (sql ^ ": counted once") (before + 1)
                (counted ()))
            [ "SELECT uid FROM pol"; "SELECT uid FROM pol";
              "SELECT uid FROM pol" ];
          let text = ok (Client.metrics client) in
          List.iter
            (fun sub ->
              Alcotest.(check bool) ("exposes: " ^ sub) true
                (contains ~sub text))
            [ "# TYPE expirel_plan_cache_hits_total counter";
              "expirel_plan_cache_hits_total 2";
              "expirel_plan_cache_misses_total 1";
              "expirel_plan_cache_requests_total 3";
              (* the query's shape and the three INSERTs' one *)
              "expirel_plan_cache_entries 2" ];
          let shard want sql = Wire.Shard_exec { sql; ctx = None; want } in
          List.iter
            (fun (queries, request) -> counts_once ~queries request)
            [ (1, Wire.Exec "EXPLAIN ANALYZE SELECT uid FROM pol");
              (1, Wire.Exec "EXPLAIN ANALYZE SELECT uid FROM pol");
              (1, shard Wire.Want_rows "SELECT uid FROM pol");
              (1, shard (Wire.Want_agg None) "SELECT deg, COUNT(*) FROM pol GROUP BY deg");
              (1, shard (Wire.Want_agg None) "SELECT deg, COUNT(*) FROM pol GROUP BY deg");
              (1, shard Wire.Want_sketch "SELECT APPROX_COUNT(0.1) FROM pol");
              (1, Wire.Exec "SELECT uid FROM nope");
              (0, Wire.Exec "SELEC uid FROM pol");
              (0, Wire.Exec "INSERT INTO pol VALUES (4, 25) EXPIRES 20");
              (0, Wire.Exec "SHOW NOW") ]))

(* A raising replication provider must cost the replication samples,
   never a request: the repl families go sample-less, METRICS still
   renders. *)
let test_raising_repl_source () =
  with_server (fun server port ->
      Metrics.set_repl_source (Server.metrics server) (fun () ->
          failwith "provider down");
      with_client port (fun client ->
          load_profiles client;
          List.iter
            (fun (m : Obs.Registry.metric) ->
              if String.starts_with ~prefix:"expirel_repl_" m.name then
                Alcotest.(check int) ("no sample: " ^ m.name) 0
                  (List.length m.samples))
            (Server.collect_metrics server);
          let text = ok (Client.metrics client) in
          Alcotest.(check bool) "metrics still render" true
            (contains ~sub:"expirel_requests_total" text)))

(* The partition summary a shard piggybacks on its replies reads live
   counts and min/max texp from the ends of each table's texp-ordered
   run; it must equal the fold of [Relation.min_texp]/[max_texp] over
   the live snapshots it replaced, on random shard states (policies,
   immortal rows, lazily retained expired rows, deletes). *)
let prop_partition_summary =
  let open QCheck2.Gen in
  let row = triple (int_range 0 40) (int_range 0 3) (int_range 0 30) in
  let state =
    quad bool (list_size (int_range 0 3) (list_size (int_range 0 60) row))
      (int_range 0 25) (list_size (int_range 0 10) (int_range 0 40))
  in
  Generators.qtest "partition_summary = snapshot min/max fold" ~count:100 state
    (fun (lazy_, tables, advance, deletes) ->
      let policy = if lazy_ then Database.Lazy else Database.Eager in
      let server =
        Server.create ~config:{ Server.default_config with policy } ()
      in
      let db = Expirel_sqlx.Interp.database (Server.interp server) in
      List.iteri
        (fun i rows ->
          let name = Printf.sprintf "t%d" i in
          let (_ : Table.t) = Database.create_table db ~name ~columns:[ "a"; "b" ] in
          List.iter
            (fun (a, b, ttl) ->
              Database.insert db name (Tuple.ints [ a; b ])
                ~texp:(if ttl = 0 then Time.Inf else fin ttl))
            rows;
          List.iter
            (fun a -> ignore (Database.delete db name (Tuple.ints [ a; a mod 4 ])))
            deletes)
        tables;
      Database.advance_to db (fin advance);
      let expected =
        List.fold_left
          (fun (n, lo, hi) name ->
            let r = Database.snapshot db name in
            if Relation.is_empty r then (n, lo, hi)
            else
              ( n + Relation.cardinal r,
                Time.min lo (Relation.min_texp r),
                if n = 0 then Relation.max_texp r
                else Time.max hi (Relation.max_texp r) ))
          (0, Time.Inf, Time.Inf) (Database.table_names db)
      in
      let got = Server.partition_summary server in
      (got.Wire.live_rows, got.Wire.min_texp, got.Wire.max_texp) = expected)

(* ---------- coordinator-issued statements ---------- *)

let shard_exec client ?ctx ~want sql =
  ok (Client.request client (Wire.Shard_exec { sql; ctx; want }))

(* A shard statement reads its reply's partition summary under the lock
   the statement ran under, so an INSERT into an empty node reports the
   row it wrote.  A v8 peer's [Exec_shard] frame gets the typed
   [Version_mismatch], not a dropped connection. *)
let test_shard_exec_summary () =
  with_server (fun _server port ->
      with_client port (fun client ->
          let live sql =
            match shard_exec client ~want:Wire.Want_rows sql with
            | Wire.Shard_reply { partition; body = Wire.Body_ack _ } ->
              partition.Wire.live_rows
            | r ->
              Alcotest.fail ("expected an ack, got " ^ Wire.render_response r)
          in
          Alcotest.(check int) "empty node" 0
            (live "CREATE TABLE s (uid, grp)");
          Alcotest.(check int) "the insert's own row" 1
            (live "INSERT INTO s VALUES (1, 7) EXPIRES 10");
          match shard_exec client ~want:Wire.Want_rows "SELECT uid FROM s" with
          | Wire.Shard_reply
              { partition;
                body = Wire.Body_rows { rows = [ ([ v ], texp) ]; _ }
              } ->
            Alcotest.(check bool) "row and texp" true
              (Value.equal v (Value.int 1) && Time.equal texp (fin 10));
            Alcotest.(check bool) "summary bounds" true
              (Time.equal partition.Wire.min_texp (fin 10)
              && Time.equal partition.Wire.max_texp (fin 10))
          | r ->
            Alcotest.fail ("expected one row, got " ^ Wire.render_response r));
      let sock = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* v8's Exec_shard: version 8, tag 15, the SQL, no context *)
          let (_ : int) =
            Frame.send sock "\x08\x0f\x00\x00\x00\x08SELECT 1\x00"
          in
          let payload, _ = Frame.recv (Frame.reader sock) in
          match Wire.decode_response payload with
          | Ok (Wire.Err { code = Wire.Version_mismatch; _ }) -> ()
          | Ok r ->
            Alcotest.fail
              ("expected version mismatch, got " ^ Wire.render_response r)
          | Error e -> Alcotest.fail ("undecodable reply: " ^ e)))

(* The partition summary is kept between replies until the clock, the
   catalog or a table moves: after each kind of change (an INSERT, a
   DELETE, a TICK that expires a row, a CREATE and a DROP TABLE), and
   on a heartbeat, the summary shipped equals one computed afresh from
   the live snapshots. *)
let test_shard_summary_cache () =
  with_server (fun server port ->
      let db = Expirel_sqlx.Interp.database (Server.interp server) in
      let fresh () =
        let tau = Database.now db in
        List.fold_left
          (fun (acc : Wire.partition_texp) name ->
            let r = Relation.exp tau (Database.snapshot db name) in
            if Relation.is_empty r then acc
            else
              { Wire.live_rows = acc.live_rows + Relation.cardinal r;
                min_texp = Time.min acc.min_texp (Relation.min_texp r);
                max_texp =
                  (if acc.live_rows = 0 then Relation.max_texp r
                   else Time.max acc.max_texp (Relation.max_texp r))
              })
          { Wire.live_rows = 0; min_texp = Time.Inf; max_texp = Time.Inf }
          (Database.table_names db)
      in
      let same what (got : Wire.partition_texp) =
        let want = fresh () in
        Alcotest.(check (triple int string string)) what
          (want.live_rows, Time.to_string want.min_texp, Time.to_string want.max_texp)
          (got.live_rows, Time.to_string got.min_texp, Time.to_string got.max_texp)
      in
      with_client port (fun client ->
          let step sql =
            match shard_exec client ~want:Wire.Want_rows sql with
            | Wire.Shard_reply { partition; _ } -> same sql partition
            | r -> Alcotest.fail ("expected a shard reply, got " ^ Wire.render_response r)
          in
          List.iter step
            [ "CREATE TABLE s (uid, grp)";
              "INSERT INTO s VALUES (1, 7) EXPIRES 3";
              "INSERT INTO s VALUES (2, 7) EXPIRES 10";
              "SELECT uid FROM s";
              "INSERT INTO s VALUES (3, 8) EXPIRES 20";
              "SELECT uid FROM s";
              "DELETE FROM s WHERE uid = 3";
              "SELECT uid FROM s";
              "TICK";
              "TICK";
              "TICK";
              "SELECT uid FROM s";
              "CREATE TABLE u (k)";
              "INSERT INTO u VALUES (9) EXPIRES 40";
              "SELECT k FROM u";
              "DROP TABLE u";
              "SELECT uid FROM s" ];
          match Client.request client Wire.Shard_ping with
          | Ok (Wire.Shard_pong { partition; _ }) -> same "heartbeat" partition
          | Ok r -> Alcotest.fail ("expected a pong, got " ^ Wire.render_response r)
          | Error e -> Alcotest.fail e))

(* An aggregate partial waits for the lock inside its trace: the entry
   recorded under the coordinator's context shows the wait as a
   [rwlock_wait] span, so it is never unattributed shard time. *)
let test_shard_exec_lock_span () =
  with_server (fun _server port ->
      with_client port (fun client ->
          ok (Client.exec_ok client "CREATE TABLE s (uid, grp)");
          ok (Client.exec_ok client "INSERT INTO s VALUES (1, 7) EXPIRES 10");
          let ctx = { Wire.trace_id = "agg-partial-1"; parent_span = 3 } in
          (match
             shard_exec client ~ctx ~want:(Wire.Want_agg None)
               "SELECT grp, COUNT(*) FROM s GROUP BY grp"
           with
           | Wire.Shard_reply { body = Wire.Body_agg { groups = [ _ ]; _ }; _ }
             ->
             ()
           | r ->
             Alcotest.fail
               ("expected one group, got " ^ Wire.render_response r));
          match
            List.find_opt
              (fun (e : Obs.Trace_store.entry) -> e.trace_id = "agg-partial-1")
              (ok (Client.traces client 10))
          with
          | None -> Alcotest.fail "aggregate partial left no trace entry"
          | Some e ->
            let names = List.map (fun (s : Obs.Trace.span) -> s.name) e.spans in
            List.iter
              (fun stage ->
                Alcotest.(check bool) ("span: " ^ stage) true
                  (List.mem stage names))
              [ "parse"; "rwlock_wait"; "op:aggregate" ]))

(* A shard's sketch partial plans through the plan cache: the second
   identical Want_sketch request is a hit, and both fold the same
   sketch. *)
let test_shard_sketch_plan_cache () =
  with_server (fun _server port ->
      with_client port (fun client ->
          ok (Client.exec_ok client "CREATE TABLE s (uid, grp)");
          ok (Client.exec_ok client "INSERT INTO s VALUES (1, 7) EXPIRES 10");
          ok (Client.exec_ok client "INSERT INTO s VALUES (2, 7) EXPIRES 20");
          let sketch () =
            match
              shard_exec client ~want:Wire.Want_sketch
                "SELECT APPROX_COUNT(0.1) FROM s"
            with
            | Wire.Shard_reply { body = Wire.Body_sketch { payload; _ }; _ } ->
              payload
            | r ->
              Alcotest.fail ("expected a sketch, got " ^ Wire.render_response r)
          in
          let first = sketch () in
          Alcotest.(check string) "the same sketch twice" first (sketch ());
          let text = ok (Client.metrics client) in
          List.iter
            (fun sub ->
              Alcotest.(check bool) ("exposes: " ^ sub) true
                (contains ~sub text))
            [ "expirel_plan_cache_hits_total 1";
              "expirel_plan_cache_misses_total 1" ]))

(* ---------- rebalance writes take the one write path ---------- *)

(* Rows as "v1,v2@texp" strings, sorted: a readable, texp-exact
   comparison. *)
let listed client sql =
  match exec client sql with
  | Wire.Rows { rows; _ } ->
    List.sort compare
      (List.map
         (fun (row, texp) ->
           String.concat "," (List.map Value.to_string row)
           ^ "@" ^ Time.to_string texp)
         rows)
  | r -> Alcotest.failf "%s: expected rows, got %s" sql (Wire.render_response r)

(* A rebalance's one write, as a coordinator sends it. *)
let move_rows client ?(add = []) ?(remove = []) table =
  Client.request client (Wire.Move_rows { table; add; remove })

let moved client ?add ?remove table =
  match move_rows client ?add ?remove table with
  | Ok (Wire.Shard_reply { body = Wire.Body_ack message; _ }) -> message
  | Ok r -> Alcotest.failf "Move_rows: %s" (Wire.render_response r)
  | Error e -> Alcotest.fail e

(* A move's adds and removes change a shard's data like any write: a
   MAINTAINED view over the table sees both.  A row already expired at
   the node's clock is not resurrected, and a removed tuple the node
   does not hold is skipped. *)
let test_rebalance_feeds_maintained_view () =
  with_server (fun _server port ->
      with_client port (fun client ->
          ok (Client.exec_ok client "CREATE TABLE t (k, v)");
          ok (Client.exec_ok client "INSERT INTO t VALUES (1, 10) EXPIRES 50");
          ok (Client.exec_ok client "ADVANCE TO 5");
          ok
            (Client.exec_ok client
               "CREATE MAINTAINED VIEW mv AS SELECT k, v FROM t");
          let view_is_table step =
            Alcotest.(check (list string)) step
              (listed client "SELECT k, v FROM t")
              (listed client "SHOW VIEW mv")
          in
          view_is_table "materialised";
          Alcotest.(check string) "the add's ack" "t: 1 row(s) added (1 already expired), 0 removed"
            (moved client "t"
               ~add:
                 [ ([ Value.Int 2; Value.Int 20 ], fin 40);
                   ([ Value.Int 3; Value.Int 30 ], fin 5) ]);
          Alcotest.(check (list string)) "added" [ "1,10@50"; "2,20@40" ]
            (listed client "SELECT k, v FROM t");
          view_is_table "after the add";
          Alcotest.(check string) "the remove's ack" "t: 0 row(s) added, 2 removed"
            (moved client "t"
               ~remove:
                 [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ];
                   [ Value.Int 4; Value.Int 40 ] ]);
          Alcotest.(check (list string)) "removed" []
            (listed client "SELECT k, v FROM t");
          view_is_table "after the remove"))

(* A move holding a row of the wrong arity is refused whole: an error
   answer on a connection that stays open, and nothing written or
   logged. *)
let test_bad_move_refused () =
  with_temp_dir (fun dir ->
      let config = { Server.default_config with data_dir = Some dir } in
      with_server ~config (fun server port ->
          with_client port (fun client ->
              ok (Client.exec_ok client "CREATE TABLE t (k, v)");
              let position () =
                match Server.store server with
                | Some s -> Durable.position s
                | None -> Alcotest.fail "no store"
              in
              let before = position () in
              (match
                 move_rows client "t"
                   ~add:
                     [ ([ Value.Int 1; Value.Int 10 ], fin 40);
                       ([ Value.Int 2 ], fin 40) ]
               with
               | Ok (Wire.Err { code = Wire.Exec_error; _ }) -> ()
               | Ok r -> Alcotest.failf "a wrong-arity row was moved: %s" (Wire.render_response r)
               | Error e -> Alcotest.fail e);
              ok (Client.ping client);
              Alcotest.(check (list string)) "nothing written" []
                (listed client "SELECT k, v FROM t");
              Alcotest.(check int) "nothing logged" before (position ()))))

(* A read-only replica refuses a move, writing nothing. *)
let test_move_refused_on_replica () =
  with_server
    ~config:{ Server.default_config with read_only = true }
    (fun _server port ->
      with_client port (fun client ->
          match move_rows client "t" ~add:[ ([ Value.Int 1; Value.Int 10 ], fin 40) ] with
          | Ok (Wire.Err { code = Wire.Exec_error; message }) ->
            Alcotest.(check string) "refused" "read-only replica: rebalance writes go to the primary"
              message
          | Ok r -> Alcotest.failf "a replica moved rows: %s" (Wire.render_response r)
          | Error e -> Alcotest.fail e))

(* ---------- held answers: a repeated read ships what changed ---------- *)

let statement ?held sql = Wire.Statement { sql; ctx = None; held }

let held_total server name label =
  match Obs.Registry.find (Server.collect_metrics server) name with
  | None -> 0.
  | Some m ->
    List.fold_left
      (fun acc (labels, sample) ->
        match sample with
        | Obs.Registry.Counter_sample n when List.mem label labels ->
          acc +. float_of_int n
        | _ -> acc)
      0. m.Obs.Registry.samples

let held_gauge server =
  Test_obs.total (Server.collect_metrics server) "expirel_held_answers"

(* s (a, g): [n] rows, a = 0 .. n-1, g = (a + shift) mod 100, each
   living 20 to 69 ticks from now. *)
let load_s client ~n ~shift =
  ok (Client.exec_ok client "CREATE TABLE s (a, g)");
  for a = 0 to n - 1 do
    ok
      (Client.exec_ok client
         (Printf.sprintf "INSERT INTO s VALUES (%d, %d) TTL %d" a
            ((a + shift) mod 100)
            (20 + ((a * 7) mod 50))))
  done

(* Plain shapes only (no ORDER BY, no LIMIT): a grouped COUNT with and
   without HAVING, projections (set-semantic, so [SELECT g] is the
   DISTINCT shape), filters and a UNION.  Twelve texts, each read again
   and again on one connection; a [Flood] reads more texts than each side
   of a connection holds, so held answers get evicted and read again. *)
let held_shapes =
  [| "SELECT g, COUNT(*) FROM s GROUP BY g";
     "SELECT g, COUNT(*) FROM s GROUP BY g HAVING COUNT(*) > 1";
     "SELECT a FROM s";
     "SELECT a, g FROM s";
     "SELECT g FROM s";
     "SELECT a, g FROM s WHERE g < 70";
     "SELECT a FROM s WHERE a >= 20";
     "SELECT a FROM s UNION SELECT g FROM s";
     "SELECT a, COUNT(*) FROM s GROUP BY a";
     "SELECT g, a FROM s WHERE a < 100";
     "SELECT a FROM s WHERE g > 5";
     "SELECT g, COUNT(*) FROM s WHERE a < 90 GROUP BY g" |]

type held_op =
  | Read of int
  | Insert of { a : int; g : int; ttl : int }
  | Delete of int
  | Tick of int
  | Advance of int
  | Recreate of int  (* DROP + CREATE TABLE s, reloaded with this shift *)
  | Failing of int
  | Flood  (* other holdable texts past the held budget, evicting the shapes *)

let held_op : held_op QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [ (10, map (fun i -> Read i) (int_range 0 (Array.length held_shapes - 1)));
      ( 4,
        map3
          (fun a g ttl -> Insert { a; g; ttl })
          (int_range 0 200) (int_range 0 99) (int_range 1 40) );
      (2, map (fun a -> Delete a) (int_range 0 200));
      (2, map (fun n -> Tick n) (int_range 1 4));
      (1, map (fun n -> Advance n) (int_range 1 6));
      (1, map (fun k -> Recreate k) (int_range 1 99));
      (1, map (fun k -> Failing k) (int_range 0 2));
      (1, pure Flood) ]

let held_sql = function
  | Read i -> held_shapes.(i)
  | Insert { a; g; ttl } -> Printf.sprintf "INSERT INTO s VALUES (%d, %d) TTL %d" a g ttl
  | Delete a -> Printf.sprintf "DELETE FROM s WHERE a = %d" a
  | Tick n -> Printf.sprintf "TICK %d" n
  | Advance _ | Recreate _ | Flood -> "" (* built against the clock / many steps *)
  | Failing 0 -> "SELECT nope FROM s"
  | Failing 1 -> "INSERT INTO nope VALUES (1)"
  | Failing _ -> "SELEC a FROM s"

(* The naive evaluator's rows, in tuple order, and texp(e). *)
let naive_answer server sql =
  Rwlock.with_read (Server.lock server) (fun () ->
      let db = Expirel_sqlx.Interp.database (Server.interp server) in
      match Expirel_sqlx.Parser.parse_statement sql with
      | Expirel_sqlx.Ast.Query { q; _ } ->
        let catalog name = Option.map Table.columns (Database.table db name) in
        let { Expirel_sqlx.Lower.expr; _ } = Expirel_sqlx.Lower.lower_query ~catalog q in
        let { Eval.relation; texp } =
          Eval.run ~env:(Database.env db) ~tau:(Database.now db) expr
        in
        ( List.map (fun (t, e) -> (Tuple.to_list t, e)) (Relation.to_list relation),
          texp )
      | _ -> Alcotest.failf "not a query: %s" sql)

(* One connection interleaves writes, clock moves, DROP + CREATE TABLE
   and failing statements with re-reads of plain shapes, and reconnects
   once.  Every re-read — whole or patched from a delta — equals a fresh
   connection's [Exec] reply (rows, columns, texp(e)) and the naive
   evaluator's rows and texp(e). *)
let prop_held_reread =
  Generators.qtest "a held re-read equals a fresh read" ~count:25
    QCheck2.Gen.(pair (list_size (int_range 20 70) held_op) (int_range 0 70))
    (fun (ops, reconnect_at) ->
      with_server (fun server port ->
          let fresh = Client.connect ~host:"127.0.0.1" ~port () in
          let held = ref (Client.connect ~host:"127.0.0.1" ~port ()) in
          Fun.protect
            ~finally:(fun () ->
              Client.close fresh;
              Client.close !held)
            (fun () ->
              load_s !held ~n:120 ~shift:0;
              let run sql = ok (Client.exec !held sql) in
              let same = ref true in
              List.iteri
                (fun i op ->
                  if i = reconnect_at then begin
                    Client.close !held;
                    held := Client.connect ~host:"127.0.0.1" ~port ()
                  end;
                  match op with
                  | Read _ ->
                    let sql = held_sql op in
                    let fresh_reply = ok (Client.request fresh (Wire.Exec sql)) in
                    let agrees =
                      match (run sql, fresh_reply) with
                      | (Wire.Rows r as mine), Wire.Rows _ ->
                        let rows, texp = naive_answer server sql in
                        mine = fresh_reply && r.rows = rows && Time.equal r.texp_e texp
                      | Wire.Err a, Wire.Err b -> a.message = b.message
                      | _ -> false
                    in
                    if not agrees then same := false
                  | Advance n ->
                    let now =
                      Rwlock.with_read (Server.lock server) (fun () ->
                          Database.now
                            (Expirel_sqlx.Interp.database (Server.interp server)))
                    in
                    ignore
                      (run
                         (Printf.sprintf "ADVANCE TO %s"
                            (Time.to_string (Time.add now (Time.of_int n)))))
                  | Recreate shift ->
                    ignore (run "DROP TABLE s");
                    load_s !held ~n:(100 + shift) ~shift
                  | Flood ->
                    (* until their rows pass the budget, or a text is
                       too small to hold (and so are the shapes) *)
                    let rec flood i held =
                      if held <= Wire.held_budget then
                        match run (Printf.sprintf "SELECT a FROM s WHERE a <> %d" i) with
                        | Wire.Rows { rows; _ } when List.length rows >= Wire.held_min_rows ->
                          flood (i + 1) (held + List.length rows)
                        | _ -> ()
                    in
                    flood 0 0
                  | Insert _ | Delete _ | Tick _ | Failing _ ->
                    ignore (run (held_sql op)))
                ops;
              !same)))

(* The held-answer forms over the wire: ORDER BY, LIMIT and answers
   under 64 rows come back as plain [Rows]; a plain query's first read
   is whole, a re-read after a write is a delta against the named
   version, smaller than the whole reply; a stale or unknown version
   gets the whole answer; a delta needs fewer changed rows than half
   the answer. *)
let test_held_forms () =
  with_server (fun server port ->
      with_client port (fun client ->
          load_s client ~n:100 ~shift:0;
          let send ?held sql =
            let reply, _, received = ok (Client.exchange client (statement ?held sql)) in
            (reply, received)
          in
          let plain what sql =
            match fst (send sql) with
            | Wire.Rows _ -> ()
            | r -> Alcotest.failf "%s: expected plain rows, got %s" what (Wire.render_response r)
          in
          plain "ORDER BY" "SELECT a, g FROM s ORDER BY g";
          plain "LIMIT" "SELECT a, g FROM s LIMIT 90";
          plain "under 64 rows" "SELECT a FROM s WHERE a < 63";
          let sql = "SELECT a, g FROM s" in
          let whole ?held () =
            match send ?held sql with
            | Wire.Held_rows { version; body = Wire.Held_whole { rows; _ } }, bytes ->
              (version, rows, bytes)
            | r, _ -> Alcotest.failf "expected a whole answer, got %s" (Wire.render_response r)
          in
          let v1, rows1, whole_bytes = whole () in
          Alcotest.(check int) "whole answer" 100 (List.length rows1);
          let insert a =
            ok
              (Client.exec_ok client
                 (Printf.sprintf "INSERT INTO s VALUES (%d, 7) EXPIRES 60" a))
          in
          insert 500;
          let v2 =
            match send ~held:v1 sql with
            | ( Wire.Held_rows
                  { version; body = Wire.Held_delta { base; upserts; removed; _ } },
                bytes ) ->
              Alcotest.(check int) "delta base" v1 base;
              Alcotest.(check bool) "one upserted row" true
                (upserts = [ ([ Value.Int 500; Value.Int 7 ], fin 60) ] && removed = []);
              Alcotest.(check bool) "a delta is smaller than the whole reply" true
                (bytes < whole_bytes);
              version
            | r, _ -> Alcotest.failf "expected a delta, got %s" (Wire.render_response r)
          in
          Alcotest.(check bool) "fresh version" true (v2 <> v1);
          (* a stale version and one never sent both get the whole answer *)
          let v3, rows3, _ = whole ~held:v1 () in
          Alcotest.(check int) "stale: whole" 101 (List.length rows3);
          let v4, _, _ = whole ~held:(v3 + 1000) () in
          (* many writes: the delta stays smaller than the whole reply *)
          for a = 600 to 639 do insert a done;
          (match send ~held:v4 sql with
           | Wire.Held_rows { body = Wire.Held_delta { upserts; _ }; version }, bytes ->
             Alcotest.(check int) "forty upserts" 40 (List.length upserts);
             let _, _, now_whole = whole () in
             Alcotest.(check bool) "forty-row delta smaller than whole" true
               (bytes < now_whole);
             ignore version
           | r, _ -> Alcotest.failf "expected a delta, got %s" (Wire.render_response r));
          (* half the answer changed: whole, under a fresh version *)
          let v6, _, _ = whole () in
          ok (Client.exec_ok client "DELETE FROM s WHERE a < 80");
          for a = 700 to 719 do insert a done;
          let v7, rows7, _ = whole ~held:v6 () in
          Alcotest.(check int) "rows after the churn" 81 (List.length rows7);
          Alcotest.(check bool) "versions grow" true (v7 > v6);
          Alcotest.(check bool) "deltas and wholes counted" true
            (held_total server "expirel_held_replies_total" ("reply", "delta") = 2.
            && held_total server "expirel_held_replies_total" ("reply", "full") >= 6.)))

(* Held state is bounded per connection and released on close: texts
   of 299 rows past the budget leave as many held as the budget's rows
   fit, and the gauge returns to 0 once both connections are gone. *)
let test_held_released () =
  with_server (fun server port ->
      let first = Client.connect ~host:"127.0.0.1" ~port () in
      load_s first ~n:300 ~shift:0;
      let fit = Wire.held_budget / 299 in
      (* more texts than a connection holds, each of 299 rows *)
      List.iter
        (fun i ->
          let sql = Printf.sprintf "SELECT a FROM s WHERE a <> %d" i in
          match ok (Client.exec first sql) with
          | Wire.Rows _ -> ()
          | r -> Alcotest.failf "%s: %s" sql (Wire.render_response r))
        (List.init (fit + 4) Fun.id);
      Alcotest.(check (float 0.)) "the budget bounds one connection"
        (float_of_int fit) (held_gauge server);
      let second = Client.connect ~host:"127.0.0.1" ~port () in
      ignore (ok (Client.exec second held_shapes.(0)));
      ignore (ok (Client.exec second held_shapes.(2)));
      Alcotest.(check (float 0.)) "two connections"
        (float_of_int (fit + 2)) (held_gauge server);
      let settles expect =
        let deadline = Unix.gettimeofday () +. 5. in
        while held_gauge server <> expect && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        Alcotest.(check (float 0.)) "released" expect (held_gauge server)
      in
      Client.close first;
      settles 2.;
      Client.close second;
      settles 0.)

(* The budget counts rows, not texts: 64 texts of 10^4 rows on one
   connection leave only what fits held.  A re-read naming an evicted
   version gets the whole answer, a held one its delta, and an answer
   larger than the budget goes out as plain rows. *)
let test_held_budget () =
  with_server (fun server port ->
      with_client port (fun client ->
          let load table n =
            Rwlock.with_write (Server.lock server) (fun () ->
                let interp = Server.interp server in
                Expirel_sqlx.Interp.write interp
                  (Wal.Create_table { name = table; columns = [ "a" ] });
                for a = 0 to n - 1 do
                  Expirel_sqlx.Interp.write interp
                    (Wal.Insert { table; tuple = Tuple.ints [ a ]; texp = fin 1_000 })
                done)
          in
          load "big" 10_001;
          let text i = Printf.sprintf "SELECT a FROM big WHERE a <> %d" i in
          let read ?held i =
            match ok (Client.request client (statement ?held (text i))) with
            | Wire.Held_rows { version; body } -> (version, body)
            | r -> Alcotest.failf "%s: %s" (text i) (Wire.render_response r)
          in
          let versions = Array.init 64 (fun i -> fst (read i)) in
          let fit = Wire.held_budget / 10_000 in
          Alcotest.(check bool) "some 10^4-row texts fit" true (fit >= 1);
          Alcotest.(check (float 0.)) "held answers" (float_of_int fit) (held_gauge server);
          Alcotest.(check bool) "rows held stay under the budget" true
            (fit * 10_000 <= Wire.held_budget);
          ok (Client.exec_ok client "INSERT INTO big VALUES (20000) EXPIRES 1000");
          (match read ~held:versions.(0) 0 with
           | _, Wire.Held_whole { rows; _ } ->
             Alcotest.(check int) "an evicted text is read whole" 10_001 (List.length rows)
           | _, Wire.Held_delta _ -> Alcotest.fail "a delta against an evicted version");
          (match read ~held:versions.(63) 63 with
           | _, Wire.Held_delta { upserts; removed; _ } ->
             Alcotest.(check int) "a held text is read as its delta" 1
               (List.length upserts + List.length removed)
           | _, Wire.Held_whole _ -> Alcotest.fail "a held text read whole");
          load "huge" (Wire.held_budget + 1);
          match ok (Client.request client (statement "SELECT a FROM huge")) with
          | Wire.Rows { rows; _ } ->
            Alcotest.(check int) "over the budget: plain rows" (Wire.held_budget + 1)
              (List.length rows)
          | r -> Alcotest.failf "expected plain rows, got %s" (Wire.render_response r)))

(* A peer on v13 gets the typed mismatch for its EXEC. *)
let test_held_v13_refused () =
  with_server (fun _server port ->
      let sock = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* v13's Exec: version 13, tag 1, the SQL behind a varint length *)
          let (_ : int) = Frame.send sock "\x0d\x01\x08SELECT 1" in
          let payload, _ = Frame.recv (Frame.reader sock) in
          match Wire.decode_response payload with
          | Ok (Wire.Err { code = Wire.Version_mismatch; _ }) -> ()
          | Ok r -> Alcotest.fail ("expected version mismatch, got " ^ Wire.render_response r)
          | Error e -> Alcotest.fail ("undecodable reply: " ^ e)))

(* A delta against a copy the client does not hold is a protocol error
   that gives the connection up, never a patched answer: a fake server
   answers a first read with a delta. *)
let test_held_bad_delta_closes () =
  let listen = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close listen with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listen 1;
      let port =
        match Unix.getsockname listen with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "no port"
      in
      let fake =
        Thread.create
          (fun () ->
            let fd, _ = Unix.accept listen in
            let reader = Frame.reader fd in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let _ = Frame.recv reader in
                ignore
                  (Frame.send fd
                     (Wire.encode_response
                        (Wire.Held_rows
                           { version = 2;
                             body =
                               Wire.Held_delta
                                 { base = 1;
                                   columns = [ "a" ];
                                   upserts = [ ([ Value.Int 1 ], fin 5) ];
                                   removed = [];
                                   texp_e = Time.Inf;
                                   recomputed = false
                                 }
                           })));
                try ignore (Frame.recv reader) with _ -> ()))
          ()
      in
      let client = Client.connect ~host:"127.0.0.1" ~port () in
      (match Client.exec client "SELECT a FROM s" with
       | Error _ -> ()
       | Ok r -> Alcotest.fail ("a stray delta was answered: " ^ Wire.render_response r));
      (match Client.ping client with
       | Error _ -> ()
       | Ok () -> Alcotest.fail "the connection stayed open");
      Client.close client;
      Thread.join fake)

(* [Metrics.observe_trace] files each span's self time (its duration
   less its direct children's, as [Trace.self_us] defines it) under its
   stage, or under its operator for an [op:] span: for traces recorded
   by random span programs (top-level spans under a remote parent id
   too), every label's count and sum equal the per-span self times. *)
let prop_observe_trace_self_times =
  let names = Generators.span_names in
  let traces =
    QCheck2.Gen.(pair (oneofl [ None; Some 40 ]) Generators.span_program)
  in
  Generators.qtest "observe_trace files each span's self time" traces (fun (parent_span, program) ->
      let tr = Expirel_obs.Trace.create ?parent_span () in
      Generators.run_span_program tr program;
      let spans = Expirel_obs.Trace.spans tr in
      let m = Metrics.create () in
      Metrics.observe_trace m tr;
      let collected = Expirel_obs.Registry.collect (Metrics.registry m) in
      let filed metric label =
        match Expirel_obs.Registry.find collected metric with
        | None -> (0, 0)
        | Some mt ->
          List.fold_left
            (fun (c, s) (bindings, sample) ->
              match sample with
              | Expirel_obs.Registry.Histogram_sample h when bindings = [ label ] ->
                (c + h.count, s + h.sum)
              | _ -> (c, s))
            (0, 0) mt.samples
      in
      List.for_all
        (fun name ->
          let mine = List.filter (fun (s : Expirel_obs.Trace.span) -> s.name = name) spans in
          let expected =
            (List.length mine, List.fold_left (fun acc s -> acc + Expirel_obs.Trace.self_us spans s) 0 mine)
          in
          let op = String.length name > 3 && String.sub name 0 3 = "op:" in
          let got =
            if op then
              filed "expirel_eval_operator_duration_seconds"
                ("operator", String.sub name 3 (String.length name - 3))
            else filed "expirel_request_stage_duration_seconds" ("stage", name)
          in
          got = expected)
        names)

let suite =
  [ Alcotest.test_case "smoke: rows travel with texp and texp(e)" `Quick test_smoke;
    prop_observe_trace_self_times;
    Alcotest.test_case "subscription events at exact logical times" `Quick
      test_subscription_event_order;
    Alcotest.test_case "writes reach a watch" `Quick test_writes_reach_watch;
    Alcotest.test_case "unsubscribe requires ownership" `Quick
      test_unsubscribe_ownership;
    Alcotest.test_case "DROP TABLE refused under a watch" `Quick
      test_drop_table_under_watch;
    Alcotest.test_case "concurrent clients: monotone clock, no expired rows"
      `Quick test_concurrent_clients;
    Alcotest.test_case "connection cap refuses with Overloaded" `Quick
      test_connection_cap;
    Alcotest.test_case "request timeout under a wedged lock" `Quick
      test_request_timeout;
    Alcotest.test_case "a receive timeout closes the client" `Quick
      test_client_timeout_closes;
    Alcotest.test_case "METRICS: prometheus exposition" `Quick
      test_metrics_exposition;
    Alcotest.test_case "METRICS: lazy-mode churn label" `Quick
      test_metrics_lazy_mode;
    Alcotest.test_case "METRICS: expirations = the storage's count" `Quick
      test_expired_counter_tracks_storage;
    Alcotest.test_case "standing aggregates on the registry" `Quick
      test_standing_aggregate_metrics;
    Alcotest.test_case "METRICS: durable primary gauges" `Quick
      test_metrics_durable_primary;
    Alcotest.test_case "METRICS: every server counter, reconciled" `Quick
      test_registry_counters;
    Alcotest.test_case "SLOW: span breakdowns over the wire" `Quick
      test_slow_queries_e2e;
    Alcotest.test_case "raising repl provider is contained" `Quick
      test_raising_repl_source;
    Alcotest.test_case "EXPLAIN ANALYZE over the wire" `Quick
      test_explain_analyze_e2e;
    Alcotest.test_case "TRACE: recent traces and context propagation" `Quick
      test_trace_e2e;
    Alcotest.test_case "HEALTH: verdicts, firing rules, status gauge" `Quick
      test_health_e2e;
    Alcotest.test_case "HORIZON: forecast, fan-out, storm rule" `Quick
      test_horizon_e2e;
    Alcotest.test_case "METRICS: horizon families, build info, hygiene"
      `Quick test_metrics_horizon_families;
    Alcotest.test_case "METRICS: plan-cache counters" `Quick
      test_plan_cache_metrics;
    Alcotest.test_case "shard exec: one lock covers the reply's summary"
      `Quick test_shard_exec_summary;
    Alcotest.test_case "shard exec: aggregate partial traces its lock wait"
      `Quick test_shard_exec_lock_span;
    Alcotest.test_case "shard sketch partials hit the plan cache" `Quick
      test_shard_sketch_plan_cache;
    Alcotest.test_case "rebalance writes reach a maintained view" `Quick
      test_rebalance_feeds_maintained_view;
    Alcotest.test_case "bad Move_rows: error answer, nothing written"
      `Quick test_bad_move_refused;
    Alcotest.test_case "a read-only replica refuses Move_rows" `Quick
      test_move_refused_on_replica;
    prop_partition_summary;
    Alcotest.test_case "shipped partition summary = a fresh one" `Quick
      test_shard_summary_cache;
    prop_held_reread;
    Alcotest.test_case "held answers: whole, delta, plain, stale" `Quick
      test_held_forms;
    Alcotest.test_case "held answers: bounded, released on close" `Quick
      test_held_released;
    Alcotest.test_case "held answers: a row budget, not a count" `Quick
      test_held_budget;
    Alcotest.test_case "held answers: a v13 EXEC is refused" `Quick
      test_held_v13_refused;
    Alcotest.test_case "held answers: a stray delta closes the client" `Quick
      test_held_bad_delta_closes ]
