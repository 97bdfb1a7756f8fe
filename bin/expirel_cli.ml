(* expirel: an interactive shell (and script runner) for the
   expiration-time-enabled database, plus its network server and
   client.

   Usage:
     expirel_cli                 # REPL on stdin
     expirel_cli -e "SELECT ..." # run one script string
     expirel_cli -f script.sqlx  # run a script file
     expirel_cli --lazy          # lazy removal policy (Section 3.2)
     expirel_cli serve           # TCP server on the wire protocol
     expirel_cli serve --data-dir d  # durable (WAL + snapshots), replicable
     expirel_cli replicate --from HOST:PORT --data-dir d  # follow a primary
     expirel_cli connect         # remote REPL against a server
     expirel_cli stats           # Prometheus exposition from a server *)

open Expirel_sqlx
open Expirel_server

let print_result = function
  | Ok outcome -> print_endline (Interp.render outcome)
  | Error msg -> Printf.printf "error: %s\n" msg

let run_script t text = List.iter print_result (Interp.exec_script t text)

let banner =
  "expirel — expiration times for data management (ICDE 2006)\n\
   statements end with ';'.  Try:\n\
  \  CREATE TABLE pol (uid, deg);\n\
  \  INSERT INTO pol VALUES (1, 25) EXPIRES 10;\n\
  \  CREATE VIEW v AS SELECT deg, COUNT(*) FROM pol GROUP BY deg;\n\
  \  ADVANCE TO 12; SHOW VIEW v;\n\
   ^D to quit."

let repl t =
  print_endline banner;
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then print_string "expirel> "
    else print_string "......> ";
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> print_newline ()
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      let text = Buffer.contents buffer in
      if String.contains line ';' then begin
        Buffer.clear buffer;
        run_script t text
      end;
      loop ()
  in
  loop ()

let parse_policy lazy_ =
  if lazy_ then Expirel_storage.Database.Lazy else Expirel_storage.Database.Eager

let main policy script file =
  let policy = parse_policy policy in
  let t = Interp.create ~policy () in
  match script, file with
  | Some text, _ -> run_script t text
  | None, Some path ->
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    run_script t text
  | None, None -> repl t

(* ---------- serve: the networked database ---------- *)

(* A data directory the store refuses (one the text log format wrote,
   say) ends the command with the store's reason. *)
let opening_store f =
  try f ()
  with Failure reason ->
    Printf.eprintf "expirel_cli: %s\n" reason;
    exit 1

let serve policy host port max_conns timeout data_dir node_name =
  let config =
    { Server.host;
      port;
      max_connections = max_conns;
      request_timeout = timeout;
      policy = parse_policy policy;
      data_dir;
      read_only = false;
      node_name;
      health_rules = Server.default_health_rules
    }
  in
  let server = opening_store (fun () -> Server.create ~config ()) in
  Server.start server;
  Printf.printf "expirel_server listening on %s:%d (%d connection(s) max%s)\n%!"
    host (Server.port server) max_conns
    (match data_dir with
     | Some dir -> Printf.sprintf ", durable in %s" dir
     | None -> "");
  Server.wait server

(* ---------- replicate: follow a primary's log ---------- *)

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when host <> "" -> (host, p)
     | Some _ | None ->
       Printf.eprintf "bad endpoint %S (expected HOST:PORT)\n" s;
       exit 2)
  | None ->
    Printf.eprintf "bad endpoint %S (expected HOST:PORT)\n" s;
    exit 2

let replicate from data_dir host port replica_id =
  let primary_host, primary_port = parse_endpoint from in
  let replica =
    opening_store (fun () ->
        Expirel_repl.Replica.create ~host ~port ?replica_id ~data_dir ~primary_host
          ~primary_port ())
  in
  Expirel_repl.Replica.start replica;
  Printf.printf
    "expirel replica of %s:%d serving reads on %s:%d (position %d)\n%!"
    primary_host primary_port host
    (Expirel_repl.Replica.port replica)
    (Expirel_repl.Replica.position replica);
  Server.wait (Expirel_repl.Replica.server replica)

(* ---------- connect: a remote REPL over the wire protocol ---------- *)

let print_events client =
  List.iter
    (fun e -> print_endline (Wire.render_response (Wire.Event e)))
    (Client.events client)

let print_reply print = function
  | Ok v -> print v
  | Error e -> Printf.printf "error: %s\n" e

let print_traces entries =
  print_endline (Wire.render_response (Wire.Traces_reply entries))

let print_health report =
  print_endline (Wire.render_response (Wire.Health_reply report))

(* The admin words both remote REPLs answer beside SQL. *)
type admin =
  | Metrics
  | Health
  | Horizon of string option
  | Trace of int
  | Slow of int
  | Usage of string  (* a count that did not parse: the word's usage *)

let admin_word text =
  let upper = String.uppercase_ascii text in
  (* What follows [word] when [text] is [word], alone or before a space. *)
  let arg word =
    let n = String.length word in
    if upper = word then Some ""
    else if String.starts_with ~prefix:(word ^ " ") upper then
      Some (String.trim (String.sub text n (String.length text - n)))
    else None
  in
  let count word rest make =
    match if rest = "" then Some 10 else int_of_string_opt rest with
    | Some n when n >= 0 -> make n
    | Some _ | None -> Usage (Printf.sprintf "usage: %s [N];" word)
  in
  match upper with
  | "METRICS" -> Some Metrics
  | "HEALTH" -> Some Health
  | _ ->
    (match (arg "HORIZON", arg "TRACE", arg "SLOW") with
     | Some "", _, _ -> Some (Horizon None)
     | Some table, _, _ -> Some (Horizon (Some table))
     | None, Some rest, _ -> Some (count "TRACE" rest (fun n -> Trace n))
     | None, None, Some rest -> Some (count "SLOW" rest (fun n -> Slow n))
     | None, None, None -> None)

let send_statement client text =
  let text = String.trim text in
  if text <> "" then begin
    (match admin_word text with
     | Some Metrics -> print_reply print_string (Client.metrics client)
     | Some Health -> print_reply print_health (Client.health client)
     | Some (Horizon table) ->
       print_reply
         (fun report -> print_endline (Expirel_obs.Horizon.render report))
         (Client.horizon ?table client)
     | Some (Trace n) -> print_reply print_traces (Client.traces client n)
     | Some (Slow n) -> print_reply print_traces (Client.slow_queries client n)
     | Some (Usage line) -> print_endline line
     | None when String.uppercase_ascii text = "PING" ->
       print_reply (fun () -> print_endline "pong") (Client.ping client)
     | None ->
       print_reply
         (fun response -> print_endline (Wire.render_response response))
         (Client.exec client text));
    print_events client
  end

let send_script client text =
  List.iter (send_statement client) (Lexer.split_statements text)

let remote_banner host port =
  Printf.sprintf
    "connected to expirel_server at %s:%d\n\
     statements end with ';'.  Also: SUBSCRIBE name AS SELECT ...;\n\
    \  UNSUBSCRIBE name;  METRICS;  SLOW [N];  TRACE [N];\n\
    \  HEALTH;  HORIZON [t];  PING;  ^D to quit."
    host port

let remote_repl client host port =
  print_endline (remote_banner host port);
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then print_string "expirel@remote> "
    else print_string "..............> ";
    flush stdout;
    (* Surface any events pushed while we were idle. *)
    List.iter
      (fun e -> print_endline (Wire.render_response (Wire.Event e)))
      (Client.poll_events client ~timeout:0.01);
    match input_line stdin with
    | exception End_of_file -> print_newline ()
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      if String.contains line ';' then begin
        let text = Buffer.contents buffer in
        Buffer.clear buffer;
        (* SUBSCRIBE / UNSUBSCRIBE are wire commands, not sqlx. *)
        Lexer.split_statements text
        |> List.iter (fun stmt ->
               let trimmed = String.trim stmt in
               let upper = String.uppercase_ascii trimmed in
               let starts p =
                 String.length upper >= String.length p
                 && String.sub upper 0 (String.length p) = p
               in
               if starts "SUBSCRIBE " then begin
                 match
                   (* SUBSCRIBE <name> AS <query> *)
                   let rest =
                     String.sub trimmed 10 (String.length trimmed - 10)
                   in
                   let rest = String.trim rest in
                   (match String.index_opt rest ' ' with
                    | None -> None
                    | Some i ->
                      let name = String.sub rest 0 i in
                      let tail =
                        String.trim (String.sub rest i (String.length rest - i))
                      in
                      let tail_up = String.uppercase_ascii tail in
                      if
                        String.length tail_up >= 3
                        && String.sub tail_up 0 3 = "AS "
                      then Some (name, String.sub tail 3 (String.length tail - 3))
                      else None)
                 with
                 | None ->
                   print_endline "usage: SUBSCRIBE <name> AS SELECT ...;"
                 | Some (name, query) ->
                   (match Client.subscribe client ~name ~query with
                    | Ok () -> Printf.printf "subscribed %s\n" name
                    | Error e -> Printf.printf "error: %s\n" e)
               end
               else if starts "UNSUBSCRIBE " then begin
                 let name =
                   String.trim
                     (String.sub trimmed 12 (String.length trimmed - 12))
                 in
                 match Client.unsubscribe client name with
                 | Ok () -> Printf.printf "unsubscribed %s\n" name
                 | Error e -> Printf.printf "error: %s\n" e
               end
               else send_statement client stmt)
      end;
      loop ()
  in
  loop ()

(* [f] on a client connected to [host:port], closed after; a failed
   connect prints why and exits 1. *)
let with_client ~host ~port f =
  let client =
    try Client.connect ~host ~port ()
    with Unix.Unix_error (err, _, _) ->
      Printf.eprintf "error: cannot connect to %s:%d: %s\n" host port
        (Unix.error_message err);
      exit 1
  in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let fail msg =
  Printf.eprintf "error: %s\n" msg;
  exit 1

(* ---------- stats: one-shot metrics fetch against a server ---------- *)

let stats_main host port slow =
  with_client ~host ~port (fun client ->
      (match Client.metrics client with
       | Ok exposition -> print_string exposition
       | Error e -> fail e);
      match slow with
      | None -> ()
      | Some n ->
        (match Client.slow_queries client n with
         | Ok entries -> print_traces entries
         | Error e -> fail e))

(* ---------- trace: recent request traces, optionally as Chrome JSON ---------- *)

let fetch_traces ~host ~port n =
  with_client ~host ~port (fun client ->
      match Client.traces client n with
      | Ok es -> es
      | Error e -> fail e)

(* [also] lists further nodes (HOST:PORT) whose recent traces merge into
   the same export: a request that fanned out over the fleet renders as
   one timeline with a lane per node. *)
let trace_main host port n also json trace_id =
  let entries =
    List.concat_map
      (fun (host, port) -> fetch_traces ~host ~port n)
      ((host, port) :: List.map parse_endpoint also)
  in
  let entries =
    match trace_id with
    | None -> entries
    | Some id ->
      List.filter
        (fun (e : Expirel_obs.Trace_store.entry) -> e.trace_id = id)
        entries
  in
  if json then print_endline (Expirel_obs.Trace_export.to_json entries)
  else print_traces entries

(* ---------- health: one-shot rule evaluation against a server ---------- *)

let health_main host port =
  with_client ~host ~port (fun client ->
      match Client.health client with
      | Ok report ->
        print_health report;
        (* Monitoring-friendly exit status: ok 0, degraded 1, critical 2. *)
        (match report.level with
         | Expirel_obs.Health.Ok -> ()
         | Degraded -> exit 1
         | Critical -> exit 2)
      | Error e -> fail e)

(* ---------- horizon: one-shot expiration forecast against a server ---------- *)

let horizon_main host port table prom =
  with_client ~host ~port (fun client ->
      match Client.horizon ?table client with
      | Ok report ->
        if prom then
          print_string
            (Expirel_obs.Prometheus.render (Expirel_obs.Horizon.metrics report))
        else print_endline (Expirel_obs.Horizon.render report)
      | Error e -> fail e)

let connect_main host port script =
  with_client ~host ~port (fun client ->
      match script with
      | Some text -> send_script client text
      | None -> remote_repl client host port)

(* ---------- cluster: N shard servers + a coordinator REPL ---------- *)

module Coordinator = Expirel_cluster.Coordinator

let cluster_serve policy host base_port shards =
  if shards < 1 then begin
    Printf.eprintf "error: need at least one shard\n";
    exit 2
  end;
  let servers =
    List.init shards (fun i ->
        let config =
          { Server.default_config with
            host;
            port = (if base_port = 0 then 0 else base_port + i);
            policy = parse_policy policy;
            node_name = Printf.sprintf "shard-%d" i
          }
        in
        Server.create ~config ())
  in
  List.iteri
    (fun i server ->
      Server.start server;
      Printf.printf "shard %d listening on %s:%d\n%!" i host
        (Server.port server))
    servers;
  List.iter Server.wait servers

let print_shard_summaries coord =
  List.iter
    (fun (id, summary, reachable) ->
      Printf.printf "shard %d: %s%s\n" id
        (if reachable then "reachable" else "unreachable")
        (match summary with
         | None -> ", partition unknown"
         | Some { Wire.live_rows; min_texp; max_texp } ->
           Printf.sprintf ", %d live row(s), texp in [%s, %s]" live_rows
             (Expirel_core.Time.to_string min_texp)
             (Expirel_core.Time.to_string max_texp)))
    (Coordinator.summaries coord)

let cluster_statement coord text =
  let text = String.trim text in
  if text <> "" then begin
    let upper = String.uppercase_ascii text in
    let rest n = String.trim (String.sub text n (String.length text - n)) in
    match admin_word text with
    | Some Metrics -> print_string (Coordinator.metrics coord)
    | Some Health -> print_health (Coordinator.health coord)
    | Some (Horizon table) ->
      print_reply
        (fun (report, per_shard) ->
          print_endline (Expirel_obs.Horizon.render ~per_shard report))
        (Coordinator.horizon ?table coord)
    | Some (Trace n) -> print_traces (Coordinator.recent_traces coord n)
    | Some (Slow n) ->
      print_traces
        (Expirel_obs.Trace_store.slowest (Coordinator.trace_store coord) n)
    | Some (Usage line) -> print_endline line
    | None when upper = "SHARDS" -> print_shard_summaries coord
    | None when String.starts_with ~prefix:"ADD SHARD " upper ->
      let host, port = parse_endpoint (rest 10) in
      print_reply print_endline (Coordinator.add_shard coord { host; port })
    | None when String.starts_with ~prefix:"REMOVE SHARD " upper ->
      (match int_of_string_opt (rest 13) with
       | Some id -> print_reply print_endline (Coordinator.remove_shard coord id)
       | None -> print_endline "usage: REMOVE SHARD <id>;")
    | None -> print_endline (Wire.render_response (Coordinator.exec coord text))
  end

let cluster_connect shard_args script =
  let endpoints =
    List.map
      (fun s ->
        let host, port = parse_endpoint s in
        { Coordinator.host; port })
      shard_args
  in
  if endpoints = [] then begin
    Printf.eprintf "error: give at least one --shard HOST:PORT\n";
    exit 2
  end;
  let coord = Coordinator.create ~shards:endpoints () in
  Fun.protect
    ~finally:(fun () -> Coordinator.close coord)
    (fun () ->
      match script with
      | Some text ->
        List.iter (cluster_statement coord) (Lexer.split_statements text)
      | None ->
        Printf.printf
          "coordinator over %d shard(s) (map v%d)\n\
           statements end with ';'.  Also: METRICS;  HEALTH;  SHARDS;\n\
          \  HORIZON [t];  TRACE [N];  SLOW [N];  ADD SHARD HOST:PORT;\n\
          \  REMOVE SHARD ID;  ^D to quit.\n"
          (List.length endpoints)
          (Coordinator.shard_map coord).Wire.map_version;
        let buffer = Buffer.create 256 in
        let rec loop () =
          if Buffer.length buffer = 0 then print_string "expirel@cluster> "
          else print_string "...............> ";
          flush stdout;
          match input_line stdin with
          | exception End_of_file -> print_newline ()
          | line ->
            Buffer.add_string buffer line;
            Buffer.add_char buffer '\n';
            if String.contains line ';' then begin
              let text = Buffer.contents buffer in
              Buffer.clear buffer;
              List.iter (cluster_statement coord) (Lexer.split_statements text)
            end;
            loop ()
        in
        loop ())

open Cmdliner

let lazy_flag =
  Arg.(value & flag & info [ "lazy" ] ~doc:"Use lazy removal of expired tuples.")

let script_arg =
  Arg.(value & opt (some string) None
       & info [ "e" ] ~docv:"SCRIPT" ~doc:"Execute the given statements and exit.")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "f" ] ~docv:"FILE" ~doc:"Execute the statements in FILE and exit.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind / connect to.")

let port_arg ~default =
  Arg.(value & opt int default
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port (0 picks an ephemeral one when serving).")

let max_conns_arg =
  Arg.(value & opt int 64
       & info [ "max-connections" ] ~docv:"N"
           ~doc:"Concurrent connection cap; excess clients are refused.")

let timeout_arg =
  Arg.(value & opt float 5.0
       & info [ "request-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline for acquiring the database lock.")

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable storage directory (WAL + snapshots); enables \
                 CHECKPOINT and replication.  Must exist.")

let node_name_arg =
  Arg.(value & opt string "expirel"
       & info [ "node-name" ] ~docv:"NAME"
           ~doc:"How this node identifies itself in exported traces \
                 (give primary and replicas distinct names).")

let serve_cmd =
  let doc = "run the expirel TCP server (framed wire protocol)" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const serve $ lazy_flag $ host_arg
          $ port_arg ~default:Expirel_server.Client.default_port
          $ max_conns_arg $ timeout_arg $ data_dir_arg $ node_name_arg)

let replicate_cmd =
  let doc = "follow a primary's log and serve expiration-exact reads" in
  let from_arg =
    Arg.(required & opt (some string) None
         & info [ "from" ] ~docv:"HOST:PORT" ~doc:"The primary to replicate.")
  in
  let replica_data_dir_arg =
    Arg.(required & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"This replica's own durable directory (its position \
                   survives restarts).  Must exist.")
  in
  let replica_id_arg =
    Arg.(value & opt (some string) None
         & info [ "replica-id" ] ~docv:"ID"
             ~doc:"Name in the primary's follower registry (default: the \
                   data directory's basename).")
  in
  Cmd.v
    (Cmd.info "replicate" ~doc)
    Term.(const replicate $ from_arg $ replica_data_dir_arg $ host_arg
          $ port_arg ~default:0 $ replica_id_arg)

let stats_cmd =
  let doc = "fetch a running server's metrics (Prometheus text format)" in
  let slow_arg =
    Arg.(value & opt (some int) None
         & info [ "slow" ] ~docv:"N"
             ~doc:"Also print the N slowest statements with their span \
                   breakdowns.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(const stats_main $ host_arg
          $ port_arg ~default:Expirel_server.Client.default_port $ slow_arg)

let trace_cmd =
  let doc = "fetch recent request traces, optionally as Chrome trace JSON" in
  let n_arg =
    Arg.(value & opt int 10
         & info [ "n" ] ~docv:"N" ~doc:"How many recent traces per node.")
  in
  let also_arg =
    Arg.(value & opt_all string []
         & info [ "also" ] ~docv:"HOST:PORT"
             ~doc:"Further nodes whose recent traces merge into the same \
                   output (repeatable) — a cross-node request renders as \
                   one timeline.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit Chrome trace-event JSON (chrome://tracing, \
                   Perfetto, speedscope) instead of text.")
  in
  let trace_id_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-id" ] ~docv:"ID"
             ~doc:"Keep only entries with this trace id.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(const trace_main $ host_arg
          $ port_arg ~default:Expirel_server.Client.default_port $ n_arg
          $ also_arg $ json_flag $ trace_id_arg)

let health_cmd =
  let doc =
    "evaluate a running server's health rules (exit 0 ok / 1 degraded / \
     2 critical)"
  in
  Cmd.v
    (Cmd.info "health" ~doc)
    Term.(const health_main $ host_arg
          $ port_arg ~default:Expirel_server.Client.default_port)

let horizon_cmd =
  let doc =
    "fetch a running server's expiration forecast (rows by ticks-to-expiry, \
     subscription fan-out, churn)"
  in
  let table_arg =
    Arg.(value & opt (some string) None
         & info [ "table" ] ~docv:"TABLE"
             ~doc:"Restrict the forecast to one table.")
  in
  let prom_flag =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit the Prometheus text-format page instead of the \
                   line-oriented summary.")
  in
  Cmd.v
    (Cmd.info "horizon" ~doc)
    Term.(const horizon_main $ host_arg
          $ port_arg ~default:Expirel_server.Client.default_port $ table_arg
          $ prom_flag)

let connect_cmd =
  let doc = "connect to a running expirel server (remote REPL)" in
  Cmd.v
    (Cmd.info "connect" ~doc)
    Term.(const connect_main $ host_arg
          $ port_arg ~default:Expirel_server.Client.default_port $ script_arg)

let cluster_cmd =
  let doc = "run or drive a sharded cluster of expirel servers" in
  let serve =
    let shards_arg =
      Arg.(value & opt int 3
           & info [ "shards" ] ~docv:"N" ~doc:"How many shard servers to run.")
    in
    let base_port_arg =
      Arg.(value & opt int 7731
           & info [ "base-port" ] ~docv:"PORT"
               ~doc:"Shard $(i,i) listens on PORT+$(i,i) (0 picks \
                     ephemeral ports).")
    in
    Cmd.v
      (Cmd.info "serve" ~doc:"run N shard servers in one process")
      Term.(const cluster_serve $ lazy_flag $ host_arg
            $ base_port_arg $ shards_arg)
  in
  let connect =
    let shard_list_arg =
      Arg.(value & opt_all string []
           & info [ "shard" ] ~docv:"HOST:PORT"
               ~doc:"A shard endpoint (repeat once per shard; order \
                     assigns shard ids).")
    in
    Cmd.v
      (Cmd.info "connect"
         ~doc:"coordinator REPL: routed writes, scatter-gather reads")
      Term.(const cluster_connect $ shard_list_arg $ script_arg)
  in
  Cmd.group (Cmd.info "cluster" ~doc) [ serve; connect ]

let cmd =
  let doc = "interactive shell for the expiration-time-enabled database" in
  let default = Term.(const main $ lazy_flag $ script_arg $ file_arg) in
  Cmd.group ~default (Cmd.info "expirel_cli" ~doc)
    [ serve_cmd; replicate_cmd; connect_cmd; stats_cmd; trace_cmd; health_cmd;
      horizon_cmd; cluster_cmd ]

let () = exit (Cmd.eval cmd)
