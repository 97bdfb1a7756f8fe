(* The paper's loosely-coupled setting (Section 1) end to end over real
   sockets: an expirel server, a client that ships a query result *with
   its validity information* (per-tuple texp and texp(e)), and a push
   subscription whose Row_expired events arrive at the exact logical
   times — the abstract's trigger story as a network service.

     dune exec examples/net_demo.exe *)

open Expirel_server

let ok = function
  | Ok v -> v
  | Error e -> failwith e

let show client sql =
  Printf.printf "expirel> %s\n%s\n" sql (Wire.render_response (ok (Client.exec client sql)))

let () =
  let server = Server.create () in
  Server.start server;
  let port = Server.port server in
  Printf.printf "server on 127.0.0.1:%d\n\n" port;

  let client = Client.connect ~host:"127.0.0.1" ~port () in

  (* Figure 1's news-service profiles, loaded remotely. *)
  show client "CREATE TABLE pol (uid, deg)";
  show client "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
  show client "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
  show client "INSERT INTO pol VALUES (3, 35) EXPIRES 10";

  (* The result carries each row's texp and the expression's texp(e):
     everything a remote cache needs to stay sound without polling. *)
  show client "SELECT uid, deg FROM pol";

  (* A continuous query: the server pushes events at the exact logical
     times rows leave the result. *)
  ok (Client.subscribe client ~name:"profiles" ~query:"SELECT uid FROM pol");
  print_endline "subscribed 'profiles' to SELECT uid FROM pol\n";

  show client "ADVANCE TO 12";
  List.iter
    (fun e -> print_endline (Wire.render_response (Wire.Event e)))
    (Client.events client);
  print_newline ();

  show client "SELECT uid, deg FROM pol";

  (* The server's counters, read in process from the registry its
     METRICS page renders; expirations sum over their removal mode. *)
  let metrics = Server.collect_metrics server in
  let count name =
    int_of_float
      (List.fold_left ( +. ) 0. (Expirel_obs.Registry.values metrics name))
  in
  Printf.printf "\nserver metrics: %d request(s), %d event(s) pushed, %d tuple(s) expired\n"
    (count "expirel_requests_total")
    (count "expirel_events_pushed_total")
    (count "expirel_tuples_expired_total");

  Client.close client;
  Server.stop server
