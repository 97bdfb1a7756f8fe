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
     expirel_cli connect         # remote REPL against a server or coordinator
     expirel_cli stats           # Prometheus exposition from a server
     expirel_cli cluster serve   # N shards behind a listening coordinator *)

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

(* Reads stdin to its end, handing [run] each chunk of lines up to one
   holding a ';'.  [prompt] opens a statement and [more] continues it;
   [idle] runs before each read. *)
let read_loop ~prompt ~more ?(idle = ignore) run =
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then prompt else more);
    flush stdout;
    idle ();
    match input_line stdin with
    | exception End_of_file -> print_newline ()
    | line ->
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n';
      if String.contains line ';' then begin
        let text = Buffer.contents buffer in
        Buffer.clear buffer;
        run text
      end;
      loop ()
  in
  loop ()

let repl t =
  print_endline banner;
  read_loop ~prompt:"expirel> " ~more:"......> " (run_script t)

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
  match Expirel_repl.Member.endpoint_of_string s with
  | Some { host; port } -> (host, port)
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

let print_events events =
  List.iter (fun e -> print_endline (Wire.render_response (Wire.Event e))) events

let print_reply print = function
  | Ok v -> print v
  | Error e -> Printf.printf "error: %s\n" e

let print_traces entries =
  print_endline (Wire.render_response (Wire.Traces_reply entries))

let print_health report =
  print_endline (Wire.render_response (Wire.Health_reply report))

(* One statement, or a word [connect] answers beside SQL, whether a
   node or a coordinator is at the other end. *)
let send_statement client text =
  let text = String.trim text in
  let upper = String.uppercase_ascii text in
  (* What follows [word] when [text] is [word], alone or before a space. *)
  let arg word =
    let n = String.length word in
    if upper = word then Some ""
    else if String.starts_with ~prefix:(word ^ " ") upper then
      Some (String.trim (String.sub text n (String.length text - n)))
    else None
  in
  let traces word rest request =
    match if rest = "" then Some 10 else int_of_string_opt rest with
    | Some n when n >= 0 -> print_reply print_traces (request client n)
    | Some _ | None -> Printf.printf "usage: %s [N];\n" word
  in
  (* SUBSCRIBE <name> AS <query> *)
  let subscribe rest =
    let usage () = print_endline "usage: SUBSCRIBE <name> AS SELECT ...;" in
    match String.index_opt rest ' ' with
    | None -> usage ()
    | Some i ->
      let name = String.sub rest 0 i in
      let tail = String.trim (String.sub rest i (String.length rest - i)) in
      if String.starts_with ~prefix:"AS " (String.uppercase_ascii tail) then
        print_reply
          (fun () -> Printf.printf "subscribed %s\n" name)
          (Client.subscribe client ~name ~query:(String.sub tail 3 (String.length tail - 3)))
      else usage ()
  in
  if text <> "" then begin
    (match (upper, arg "HORIZON", arg "TRACE", arg "SLOW", arg "SUBSCRIBE", arg "UNSUBSCRIBE") with
     | "METRICS", _, _, _, _, _ -> print_reply print_string (Client.metrics client)
     | "HEALTH", _, _, _, _, _ -> print_reply print_health (Client.health client)
     | "PING", _, _, _, _, _ -> print_reply (fun () -> print_endline "pong") (Client.ping client)
     | _, Some table, _, _, _, _ ->
       let table = if table = "" then None else Some table in
       print_reply
         (fun report -> print_endline (Expirel_obs.Horizon.render report))
         (Client.horizon ?table client)
     | _, None, Some rest, _, _, _ -> traces "TRACE" rest Client.traces
     | _, None, None, Some rest, _, _ -> traces "SLOW" rest Client.slow_queries
     | _, None, None, None, Some rest, _ -> subscribe rest
     | _, None, None, None, None, Some name ->
       print_reply
         (fun () -> Printf.printf "unsubscribed %s\n" name)
         (Client.unsubscribe client name)
     | _, None, None, None, None, None ->
       print_reply
         (fun response -> print_endline (Wire.render_response response))
         (Client.exec client text));
    print_events (Client.events client)
  end

let send_script client text =
  List.iter (send_statement client) (Lexer.split_statements text)

let remote_banner host port =
  Printf.sprintf
    "connected to expirel at %s:%d\n\
     statements end with ';'.  Also: SUBSCRIBE name AS SELECT ...;\n\
    \  UNSUBSCRIBE name;  METRICS;  SLOW [N];  TRACE [N];\n\
    \  HEALTH;  HORIZON [t];  PING;  and, on a coordinator, SHARDS;\n\
    \  ADD SHARD HOST:PORT;  REMOVE SHARD ID;  ^D to quit."
    host port

let remote_repl client host port =
  print_endline (remote_banner host port);
  read_loop ~prompt:"expirel@remote> " ~more:"..............> "
    ~idle:(fun () ->
      (* Surface any events pushed while we were idle. *)
      print_events (Client.poll_events client ~timeout:0.01))
    (send_script client)

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

(* [request]'s answer on [client]; a failure prints why and exits 1. *)
let get client request =
  match request client with
  | Ok v -> v
  | Error e -> fail e

(* ---------- stats: one-shot metrics fetch against a server ---------- *)

let stats_main host port slow =
  with_client ~host ~port (fun c ->
      print_string (get c Client.metrics);
      Option.iter (fun n -> print_traces (get c (fun c -> Client.slow_queries c n))) slow)

(* ---------- trace: recent request traces, optionally as Chrome JSON ---------- *)

(* [also] lists further nodes (HOST:PORT) whose recent traces merge into
   the same export: a request that fanned out over the fleet renders as
   one timeline with a lane per node. *)
let trace_main host port n also json trace_id =
  let entries =
    List.concat_map
      (fun (host, port) -> with_client ~host ~port (fun c -> get c (fun c -> Client.traces c n)))
      ((host, port) :: List.map parse_endpoint also)
    |> List.filter (fun (e : Expirel_obs.Trace_store.entry) ->
           Option.fold ~none:true ~some:(String.equal e.trace_id) trace_id)
  in
  if json then print_endline (Expirel_obs.Trace_export.to_json entries)
  else print_traces entries

(* ---------- health: one-shot rule evaluation against a server ---------- *)

let health_main host port =
  let report = with_client ~host ~port (fun c -> get c Client.health) in
  print_health report;
  (* Monitoring-friendly exit status: ok 0, degraded 1, critical 2. *)
  match report.level with
  | Expirel_obs.Health.Ok -> ()
  | Degraded -> exit 1
  | Critical -> exit 2

(* ---------- horizon: one-shot expiration forecast against a server ---------- *)

let horizon_main host port table prom =
  let report = with_client ~host ~port (fun c -> get c (Client.horizon ?table)) in
  if prom then
    print_string (Expirel_obs.Prometheus.render (Expirel_obs.Horizon.metrics report))
  else print_endline (Expirel_obs.Horizon.render report)

let connect_main host port script =
  with_client ~host ~port (fun client ->
      match script with
      | Some text -> send_script client text
      | None -> remote_repl client host port)

(* ---------- cluster: N shard servers behind a listening coordinator ---------- *)

module Coordinator = Expirel_cluster.Coordinator

let cluster_serve policy host base_port shards =
  if shards < 1 then begin
    Printf.eprintf "error: need at least one shard\n";
    exit 2
  end;
  let port i = if base_port = 0 then 0 else base_port + i in
  let servers =
    List.init shards (fun i ->
        let config =
          { Server.default_config with
            host;
            port = port i;
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
  let coord =
    Coordinator.create
      ~shards:(List.map (fun s -> { Coordinator.host; port = Server.port s }) servers)
      ()
  in
  Printf.printf "coordinator listening on %s:%d\n%!" host
    (Coordinator.listen ~host ~port:(port shards) coord);
  List.iter Server.wait servers

(* A coordinator over the given shards, listening on an ephemeral
   loopback port that [connect] drives. *)
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
    (fun () -> connect_main "127.0.0.1" (Coordinator.listen coord) script)

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
               ~doc:"Shard $(i,i) listens on PORT+$(i,i) and the coordinator \
                     on PORT+N (0 picks ephemeral ports).")
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:"run N shard servers and a listening coordinator in one process")
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
         ~doc:"a coordinator over the given shards, driven like $(b,connect)")
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
