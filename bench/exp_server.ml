(* The networked-server experiment: throughput and latency of the wire
   protocol under N concurrent clients over localhost TCP, with a live
   subscription streaming expiration events, and the server's counters
   (its METRICS registry, read in process) reconciled against
   client-side counts — the paper's loosely-coupled setting
   (Section 1) running on real sockets rather than the paper/dist/
   simulation.  A second part re-reads one GROUP BY text, held (the
   client names its copy and gets the rows changed since) against
   whole. *)

open Expirel_server

let clients = 32
let requests_per_client = 100

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

(* ---------- held answers: a repeated read ships what changed ---------- *)

let held_rows = 10_000
let held_groups = 1_000
let held_reads = 200
let held_text = "SELECT uid, COUNT(*) FROM sessions GROUP BY uid"

(* The server's payload bytes so far, both ways. *)
let wire_bytes server =
  let metrics = Server.collect_metrics server in
  let total name =
    int_of_float
      (List.fold_left ( +. ) 0. (Expirel_obs.Registry.values metrics name))
  in
  total "expirel_bytes_in_total" + total "expirel_bytes_out_total"

(* One GROUP BY text over [held_rows] sessions in [held_groups] groups,
   re-read [held_reads] times with [writes] inserts between reads: once
   through [Client.exec], which names the answer it holds so the server
   can reply with a delta, and once as a bare [Exec], which holds
   nothing and gets the whole answer every time.  Each read's bytes are
   the server's bytes in and out across it; only the read is timed.
   Both paths must see the same rows. *)
let held_groupby () =
  print_endline "-- held answers: one GROUP BY text re-read --";
  let server = Server.create () in
  Server.start server;
  let port = Server.port server in
  let admin = Client.connect ~host:"127.0.0.1" ~port () in
  let must = function
    | Ok () -> ()
    | Error e -> failwith e
  in
  must (Client.exec_ok admin "CREATE TABLE sessions (sid, uid)");
  for sid = 0 to held_rows - 1 do
    must
      (Client.exec_ok admin
         (Printf.sprintf "INSERT INTO sessions VALUES (%d, %d) EXPIRES %d" sid
            (sid mod held_groups) (100_000 + sid)))
  done;
  let next_sid = ref held_rows in
  let write () =
    let sid = !next_sid in
    incr next_sid;
    must
      (Client.exec_ok admin
         (Printf.sprintf "INSERT INTO sessions VALUES (%d, %d) EXPIRES %d" sid
            (sid * 7 mod held_groups) (100_000 + sid)))
  in
  let measure ~writes read =
    (* warm: plan cache, standing entry, the first whole answer *)
    for _ = 1 to 3 do ignore (read ()) done;
    let us = ref 0. and bytes = ref 0 and last = ref [] in
    for _ = 1 to held_reads do
      for _ = 1 to writes do write () done;
      let before = wire_bytes server in
      let t0 = Unix.gettimeofday () in
      last := read ();
      us := !us +. ((Unix.gettimeofday () -. t0) *. 1e6);
      bytes := !bytes + wire_bytes server - before
    done;
    (!us /. float_of_int held_reads, !bytes / held_reads, !last)
  in
  let rows_of = function
    | Ok (Wire.Rows { rows; _ }) -> rows
    | Ok r -> failwith ("unexpected reply: " ^ Wire.render_response r)
    | Error e -> failwith e
  in
  let results =
    List.map
      (fun writes ->
        let held = Client.connect ~host:"127.0.0.1" ~port () in
        let full = Client.connect ~host:"127.0.0.1" ~port () in
        let held_us, held_bytes, _ =
          measure ~writes (fun () -> rows_of (Client.exec held held_text))
        in
        let full_us, full_bytes, full_rows =
          measure ~writes (fun () ->
              rows_of (Client.request full (Wire.Exec held_text)))
        in
        if rows_of (Client.exec held held_text) <> full_rows then
          failwith "a held re-read differs from the whole answer";
        Client.close held;
        Client.close full;
        let key what =
          Printf.sprintf "%s_groupby_n%d_g%d_w%d" what held_rows held_groups
            writes
        in
        Bench_util.metric (key "held" ^ "_us_per_read") held_us;
        Bench_util.metric_int (key "held" ^ "_bytes_per_read") held_bytes;
        Bench_util.metric (key "full" ^ "_us_per_read") full_us;
        Bench_util.metric_int (key "full" ^ "_bytes_per_read") full_bytes;
        [ string_of_int writes; Bench_util.f1 held_us; Bench_util.f1 full_us;
          string_of_int held_bytes; string_of_int full_bytes ])
      [ 0; 1; 16 ]
  in
  Bench_util.table
    ~headers:[ "writes/read"; "held us"; "full us"; "held bytes"; "full bytes" ]
    results;
  Client.close admin;
  Server.stop server

let run_all () =
  print_endline "== server: wire-protocol throughput under concurrent clients ==";
  flush stdout;
  let config =
    { Server.default_config with max_connections = clients + 8 }
  in
  let server = Server.create ~config () in
  Server.start server;
  let port = Server.port server in

  let admin = Client.connect ~host:"127.0.0.1" ~port () in
  (match Client.exec_ok admin "CREATE TABLE sessions (sid, uid)" with
   | Ok () -> ()
   | Error e -> failwith e);

  let errors = Array.make clients 0 in
  let latencies = Array.make clients [] in
  let started = Unix.gettimeofday () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            let client = Client.connect ~host:"127.0.0.1" ~port () in
            for i = 1 to requests_per_client do
              let sql =
                if i mod 4 = 0 then "SELECT sid, uid FROM sessions WHERE uid < 8"
                else
                  Printf.sprintf
                    "INSERT INTO sessions VALUES (%d, %d) EXPIRES %d"
                    ((c * requests_per_client) + i)
                    (i mod 16)
                    (1000 + i)
              in
              let t0 = Unix.gettimeofday () in
              (match Client.exec client sql with
               | Ok (Wire.Err _) | Error _ -> errors.(c) <- errors.(c) + 1
               | Ok _ -> ());
              latencies.(c) <- (Unix.gettimeofday () -. t0) :: latencies.(c)
            done;
            Client.close client)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. started in

  (* Watch the loaded table, then expire the short-lived sessions: the
     subscriber's Row_expired events arrive, in logical-time order,
     before the ADVANCE is acknowledged. *)
  (match
     Client.subscribe admin ~name:"watch"
       ~query:"SELECT sid FROM sessions WHERE uid < 4"
   with
   | Ok () -> ()
   | Error e -> failwith e);
  (match Client.exec_ok admin "ADVANCE TO 1050" with
   | Ok () -> ()
   | Error e -> failwith e);
  let pushed = Client.events admin in
  let ats =
    List.filter_map
      (function
        | Expirel_server.Wire.Row_expired { at; _ } -> Some at
        | _ -> None)
      pushed
  in
  if ats <> List.sort Expirel_core.Time.compare ats then
    failwith "push events arrived out of logical-time order";
  let events = List.length pushed in

  let all =
    Array.of_list (List.concat (Array.to_list latencies)) in
  Array.sort compare all;
  let total_requests = clients * requests_per_client in
  let total_errors = Array.fold_left ( + ) 0 errors in
  Printf.printf
    "%d clients x %d requests: %.2fs, %.0f req/s, %d error(s)\n"
    clients requests_per_client elapsed
    (float_of_int total_requests /. elapsed)
    total_errors;
  Printf.printf "latency: p50 %.0fus  p95 %.0fus  p99 %.0fus  max %.0fus\n"
    (percentile all 0.50 *. 1e6)
    (percentile all 0.95 *. 1e6)
    (percentile all 0.99 *. 1e6)
    (percentile all 1.0 *. 1e6);
  Bench_util.param_int "clients" clients;
  Bench_util.param_int "requests_per_client" requests_per_client;
  Bench_util.metric "throughput_rps" (float_of_int total_requests /. elapsed);
  Bench_util.metric "latency_p50_us" (percentile all 0.50 *. 1e6);
  Bench_util.metric "latency_p99_us" (percentile all 0.99 *. 1e6);
  Bench_util.metric_int "errors" total_errors;
  Printf.printf "subscription events after ADVANCE: %d\n" events;

  (* The server's counters must reconcile with what the clients
     counted. *)
  let metrics = Server.collect_metrics server in
  let count name =
    int_of_float
      (List.fold_left ( +. ) 0. (Expirel_obs.Registry.values metrics name))
  in
  let requests = count "expirel_requests_total" in
  let pushed = count "expirel_events_pushed_total" in
  (* admin issued create + subscribe + advance *)
  let expected_min = total_requests + 3 in
  Printf.printf
    "server metrics: %d requests (>= %d expected), %d events pushed, %d \
     tuples expired, %d bytes in, %d bytes out\n"
    requests expected_min pushed
    (count "expirel_tuples_expired_total")
    (count "expirel_bytes_in_total")
    (count "expirel_bytes_out_total");
  if requests < expected_min then
    failwith "expirel_requests_total below client-side count";
  if pushed <> events then
    failwith "expirel_events_pushed_total does not match client-side event count";
  Client.close admin;
  Server.stop server;
  print_newline ();
  held_groupby ()
