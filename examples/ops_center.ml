(* An operations centre built on the full stack: a durable on-call
   roster, continuous queries pushing events at exact expiration times,
   and predictive integrity constraints that warn before coverage gaps
   happen.

   Run with: dune exec examples/ops_center.exe *)

open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let dir = Filename.temp_dir "expirel" "ops" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  section "A durable on-call roster (WAL + checkpointing)";
  let t = Durable.open_dir dir in
  (* One interpreter session over the store: it logs every statement
     ahead and owns the constraints and watches below. *)
  let session = Interp.create ~store:t () in
  let sql statement =
    match Interp.exec_sql session statement with
    | Ok outcome -> Interp.render outcome
    | Error e -> failwith (statement ^ ": " ^ e)
  in
  ignore (sql "CREATE TABLE oncall (op, level)");
  (* Shifts end at known times: that IS the expiration time. *)
  List.iter
    (fun (op, level, shift_end) ->
      ignore
        (sql
           (Printf.sprintf "INSERT INTO oncall VALUES (%d, %d) EXPIRES %d" op
              level shift_end)))
    [ 1, 1, 60; 2, 1, 25; 3, 2, 40; 4, 2, 95 ];
  Printf.printf "4 operators on call; WAL holds %d records\n" (Durable.wal_records t);

  section "Predictive integrity constraints";
  ignore
    (sql
       "CREATE CONSTRAINT senior_coverage ON SELECT op FROM oncall WHERE \
        level = 1 MIN 2");
  ignore (sql "CREATE CONSTRAINT anyone_awake ON SELECT op FROM oncall MIN 1");
  (* One "name: n row(s), min k — verdict" line per constraint. *)
  let verdict name =
    let line =
      List.find
        (String.starts_with ~prefix:(name ^ ":"))
        (String.split_on_char '\n' (sql "SHOW CONSTRAINTS"))
    in
    let rec after = function
      | "—" :: rest -> String.concat " " rest
      | _ :: rest -> after rest
      | [] -> line
    in
    after (String.split_on_char ' ' line)
  in
  List.iter
    (fun name -> Printf.printf "  %-16s %s — act before then!\n" name (verdict name))
    [ "senior_coverage"; "anyone_awake" ];

  (* Act on the prediction: extend operator 2's shift ahead of time. *)
  ignore (sql "INSERT INTO oncall VALUES (2, 1) EXPIRES 80");
  Printf.printf "renewed operator 2 through t=80; senior coverage now %s\n"
    (verdict "senior_coverage");

  section "Continuous queries: exact-time push notifications";
  (match
     Interp.subscribe session ~name:"seniors"
       (Parser.parse_statement "SELECT op, level FROM oncall WHERE level = 1")
       (function
         | Subscription.Row_expired { tuple; at; _ } ->
           Printf.printf "  t=%-3s off-shift: %s\n" (Time.to_string at)
             (Tuple.to_string tuple)
         | Subscription.Row_appeared { tuple; at; _ } ->
           Printf.printf "  t=%-3s on-shift:  %s\n" (Time.to_string at)
             (Tuple.to_string tuple)
         | Subscription.Refreshed { at; _ } ->
           Printf.printf "  t=%-3s (view refreshed)\n" (Time.to_string at))
   with
   | Ok () -> ()
   | Error e -> failwith e);
  (* One clock move: the watch's events fire at their exact times, the
     constraint transitions come back, then the clock moves (and is
     logged) once. *)
  print_endline (sql "ADVANCE TO 90");
  print_endline (sql "SELECT op FROM oncall WHERE level = 1");

  section "Crash recovery";
  let wal_before = Durable.wal_records t in
  Durable.close t;
  let reopened = Durable.open_dir dir in
  Printf.printf "reopened: clock back at t=%s, %d live operator(s)\n"
    (Time.to_string (Durable.now reopened))
    (Relation.cardinal (Database.snapshot (Durable.database reopened) "oncall"));
  let snapshot_records = Durable.checkpoint reopened in
  Printf.printf
    "checkpoint: %d wal records compacted into a %d-record snapshot\n\
     (expired shifts were never written: expiration is compaction)\n"
    wal_before snapshot_records;
  Durable.close reopened
