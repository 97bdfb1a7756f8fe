(* The sharded cluster, end to end over real sockets.

   The acceptance contract of the coordinator: (a) a scatter-gathered
   result is row- and texp(e)-identical to the same statements run on
   one node holding the union of the partitions; (b) a shard whose
   whole partition has expired is pruned from fan-outs — observable in
   the pruned counter and the per-shard request counters — while
   results stay identical to a forced broadcast; (c) one client trace
   id spans the coordinator and every contacted shard in the merged
   trace view.  Plus: routed inserts land on [Wire.shard_owner]'s
   pick, rebalancing preserves contents exactly, and the default
   health rules degrade when a shard stops heartbeating or restarts
   (a new boot id), and not when only its connection is redialled. *)

open Expirel_core
open Expirel_storage
open Expirel_server
module Coordinator = Expirel_cluster.Coordinator
module Obs = Expirel_obs

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let no_err msg = function
  | Wire.Err { message; _ } -> Alcotest.fail (msg ^ ": " ^ message)
  | (r : Wire.response) -> r

(* ---------- harness: n shard servers + a coordinator ---------- *)

let shard_config =
  { Server.default_config with Server.host = "127.0.0.1"; port = 0 }

let with_shards ?(config = shard_config) n f =
  let servers = List.init n (fun _ -> Server.create ~config ()) in
  List.iter Server.start servers;
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop servers)
    (fun () ->
      f servers
        (List.map
           (fun s -> { Coordinator.host = "127.0.0.1"; port = Server.port s })
           servers))

(* Heartbeats run on demand ([heartbeat_now]) so every refresh in these
   tests is deterministic. *)
let with_cluster ?config n f =
  with_shards ?config n (fun servers endpoints ->
      let coord = Coordinator.create ~heartbeat_interval:0. ~shards:endpoints () in
      Fun.protect
        ~finally:(fun () -> Coordinator.close coord)
        (fun () -> f coord servers endpoints))

let exec coord sql = no_err sql (Coordinator.exec coord sql)

(* A counter's value on the coordinator's METRICS page. *)
let counter coord name =
  let page = Coordinator.metrics coord in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> int_of_float (float_of_string v)
      | _ -> acc)
    0 (String.split_on_char '\n' page)

let rows_of sql = function
  | Wire.Rows { rows; texp_e; _ } -> rows, texp_e
  | r ->
    Alcotest.fail
      (Printf.sprintf "%s: expected rows, got %s" sql (Wire.render_response r))

let sorted rows = List.sort compare rows

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The row count leading a DELETE or VACUUM acknowledgement. *)
let ack_count = function
  | Wire.Ok_msg m -> Scanf.sscanf m "%d " Fun.id
  | r -> Alcotest.failf "expected an ack, got %s" (Wire.render_response r)

(* The workload both sides run: keys hash onto distinct shards, some
   rows expire early, projections create cross-shard duplicates, and
   UNION/EXCEPT exercise the set-operation paths. *)
let statements =
  [ "CREATE TABLE pol (uid, deg)";
    "CREATE TABLE aux (uid, tag)";
    "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
    "INSERT INTO pol VALUES (2, 30) EXPIRES 20";
    "INSERT INTO pol VALUES (3, 25) EXPIRES 30";
    "INSERT INTO pol VALUES (4, 40) EXPIRES 8";
    "INSERT INTO pol VALUES (5, 25) EXPIRES 40";
    "INSERT INTO pol VALUES (6, 30) EXPIRES 12";
    "INSERT INTO aux VALUES (1, 7) EXPIRES 25";
    "INSERT INTO aux VALUES (9, 7) EXPIRES 15";
    "ADVANCE TO 9" ]

let queries =
  [ "SELECT * FROM pol";
    "SELECT * FROM pol WHERE deg = 25";
    "SELECT deg FROM pol";  (* cross-shard duplicates: union rule *)
    "SELECT uid, deg FROM pol ORDER BY deg DESC, uid ASC";
    "SELECT * FROM pol ORDER BY uid LIMIT 3";
    (* LIMIT alone cuts the tuple order, on a shard as on one node *)
    "SELECT * FROM pol LIMIT 2";
    "SELECT * FROM pol LIMIT 3";
    "SELECT deg FROM pol LIMIT 1";
    "SELECT uid FROM pol UNION SELECT uid FROM aux";
    "SELECT * FROM pol EXCEPT SELECT * FROM pol WHERE deg = 30";
    "SELECT * FROM pol AT 15";
    "SELECT * FROM pol AT 35" ]

(* ---------- (a) scatter-gather == one node over the union ---------- *)

(* Repeated GROUP BY COUNTs, which the coordinator keeps and the shards
   answer with deltas, drawn between inserts, overwrites (a tuple
   inserted again with a new texp), pinned and broadcast DELETEs, TICKs
   that expire members, one rebalance ([grow]), and write bursts: one
   writing 600 groups at one key, after which each kept text (read
   twice just before, so its copies are whole) is one delta read, and
   one writing 200 of the ~600 groups over every shard.  Every answer's
   rows, row texps and texp(e) must be the single node's and the
   stateless merge's. *)
let standing_groupbys = [
  "SELECT v, COUNT(*) FROM st GROUP BY v";
  "SELECT v, COUNT(*) FROM st GROUP BY v HAVING COUNT(*) > 1";
  "SELECT COUNT(*) FROM st GROUP BY v";
  "SELECT COUNT(*), v FROM st WHERE k > 4 GROUP BY v ORDER BY v" ]

let check_repeated_groupbys ~exec_both ~ask ~grow ~reads =
  let rng = Random.State.make [| 2029 |] in
  let pick lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let insert () =
    exec_both (Printf.sprintf "INSERT INTO st VALUES (%d, %d) TTL %d" (pick 1 12) (pick 0 4)
                 (pick 1 25))
  in
  let burst ~rows row =
    for i = 1 to rows do
      let k, v = row i in
      exec_both (Printf.sprintf "INSERT INTO st VALUES (%d, %d) TTL %d" k v (pick 1 25))
    done
  in
  let past_the_log () =
    let k = pick 13 20 in
    List.iter (fun q -> ask q; ask q) standing_groupbys;
    let full, delta = reads () in
    burst ~rows:600 (fun i -> (k, 100 + i));
    List.iter ask standing_groupbys;
    Alcotest.(check (pair int int)) "a 600-group burst is a delta read"
      (full, delta + List.length standing_groupbys) (reads ())
  and wide () = burst ~rows:200 (fun _ -> (pick 1 12, pick 101 700)) in
  exec_both "CREATE TABLE st (k, v)";
  for _ = 1 to 30 do insert () done;
  for step = 1 to 80 do
    if step = 40 then grow ();
    if step = 20 || step = 60 then past_the_log ();
    if step = 30 || step = 70 then wide ();
    match Random.State.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> insert ()
    | 7 | 8 -> exec_both (Printf.sprintf "DELETE FROM st WHERE k = %d" (pick 1 12))
    | 9 -> exec_both (Printf.sprintf "DELETE FROM st WHERE v = %d" (pick 0 4))
    | 10 | 11 | 12 -> exec_both (Printf.sprintf "TICK %d" (pick 1 3))
    | _ ->
      let q = List.nth standing_groupbys (Random.State.int rng (List.length standing_groupbys)) in
      for _ = 1 to pick 1 3 do ask q done
  done;
  List.iter ask standing_groupbys

let test_matches_single_node () =
  with_cluster 3 (fun coord _servers _eps ->
      let single = Server.create ~config:shard_config () in
      Server.start single;
      Fun.protect
        ~finally:(fun () -> Server.stop single)
        (fun () ->
          let c =
            Client.connect ~host:"127.0.0.1" ~port:(Server.port single) ()
          in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              List.iter
                (fun sql ->
                  ignore (exec coord sql);
                  ignore (no_err sql (ok (Client.exec c sql))))
                statements;
              List.iter
                (fun sql ->
                  let cl_rows, cl_texp = rows_of sql (exec coord sql) in
                  let sn_rows, sn_texp =
                    rows_of sql (no_err sql (ok (Client.exec c sql)))
                  in
                  (* Identical sets with identical per-tuple texps; and
                     where ORDER BY fixes the order, identical listings. *)
                  Alcotest.(check bool)
                    (sql ^ ": same rows") true
                    (sorted cl_rows = sorted sn_rows);
                  let has_order_by =
                    let n = String.length sql in
                    let rec go i =
                      i + 8 <= n && (String.sub sql i 8 = "ORDER BY" || go (i + 1))
                    in
                    go 0
                  in
                  if has_order_by then
                    Alcotest.(check bool)
                      (sql ^ ": same listing order") true (cl_rows = sn_rows);
                  Alcotest.(check bool)
                    (sql ^ ": same texp(e)") true
                    (Time.equal cl_texp sn_texp))
                queries;
              let exec_both sql =
                ignore (exec coord sql);
                ignore (no_err sql (ok (Client.exec c sql)))
              in
              let ask sql =
                let cl_rows, cl_texp = rows_of sql (exec coord sql) in
                let sn_rows, sn_texp = rows_of sql (no_err sql (ok (Client.exec c sql))) in
                let sl_rows, sl_texp =
                  rows_of sql (no_err sql (Coordinator.exec ~prune:false coord sql))
                in
                Alcotest.(check bool) (sql ^ ": the stateless merge's rows and texps") true
                  (sorted cl_rows = sorted sl_rows);
                Alcotest.(check bool) (sql ^ ": the stateless merge's texp(e)") true
                  (Time.equal cl_texp sl_texp);
                Alcotest.(check bool) (sql ^ ": same rows and texps") true
                  (sorted cl_rows = sorted sn_rows);
                if string_contains sql "ORDER BY" then
                  Alcotest.(check bool) (sql ^ ": same listing order") true (cl_rows = sn_rows);
                Alcotest.(check bool) (sql ^ ": same texp(e)") true (Time.equal cl_texp sn_texp)
              in
              let extra = Server.create ~config:shard_config () in
              Server.start extra;
              Fun.protect
                ~finally:(fun () -> Server.stop extra)
                (fun () ->
                  check_repeated_groupbys ~exec_both ~ask
                    ~reads:(fun () ->
                      ( counter coord "expirel_cluster_agg_full_reads_total",
                        counter coord "expirel_cluster_agg_delta_reads_total" ))
                    ~grow:(fun () ->
                      ignore
                        (ok
                           (Coordinator.add_shard coord
                              { Coordinator.host = "127.0.0.1"; port = Server.port extra }))));
              Alcotest.(check bool) "the repeated GROUP BYs read deltas" true
                (counter coord "expirel_cluster_agg_delta_reads_total" > 0))))

(* ---------- standing GROUP BY COUNT: what a repeated read ships ---------- *)

(* The bytes a kept read's reply spends on one shipped group: the
   codec's own encoding with the group, condensed from its members'
   texps, against without it. *)
let group_bytes key texps =
  let module P = Expirel_exec.Partial_agg in
  let reply groups =
    Wire.encode_response
      (Wire.Shard_reply
         { partition = { Wire.live_rows = 0; min_texp = Time.Inf; max_texp = Time.Inf };
           body =
             Wire.Body_agg
               { columns = []; child_texp = Time.Inf; groups;
                 held = Some { Wire.version = 1; full = false } } })
  in
  let members = List.fold_left (fun st texp -> P.standing_change st key texp 1) P.standing_empty texps in
  String.length (reply (Option.to_list (P.standing_group members key))) - String.length (reply [])

(* A repeated cluster GROUP BY COUNT ships what changed: the third read
   of a text (the second promotes it on the shards, and ships every
   group) with no write between gets an empty delta from every shard,
   and after one routed write exactly one group crosses the wire,
   condensed.  A shard whose entry the statement cache evicted (65
   distinct texts) ships a delta naming every group, as the rebuilt
   entry shares nothing with the groups it shipped; one that restarted
   from its store ships every group whole again.  Every answer is the
   single node's. *)
let test_standing_groupby () =
  let dirs = List.init 3 (fun _ -> Filename.temp_dir "expirel" "shard") in
  let config dir = { shard_config with Server.data_dir = Some dir } in
  let servers = Array.of_list (List.map (fun dir -> Server.create ~config:(config dir) ()) dirs) in
  Array.iter Server.start servers;
  Fun.protect
    ~finally:(fun () ->
      Array.iter Server.stop servers;
      List.iter
        (fun dir ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        dirs)
    (fun () ->
      let coord =
        Coordinator.create ~heartbeat_interval:0.
          ~shards:
            (Array.to_list
               (Array.map (fun s -> { Coordinator.host = "127.0.0.1"; port = Server.port s }) servers))
          ()
      in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let q = "SELECT g, COUNT(*) FROM s GROUP BY g" in
      let single_rows () =
        match ok (Expirel_sqlx.Interp.exec_sql single q) with
        | Expirel_sqlx.Interp.Rows { listing; texp_e; _ } ->
          (sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)), texp_e)
        | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
      in
      (* One read: its reply bytes, checked against the single node. *)
      let read what =
        let before = (Coordinator.traffic coord).Coordinator.bytes_received in
        let rows, texp_e = rows_of q (exec coord q) in
        let sn_rows, sn_texp = single_rows () in
        Alcotest.(check bool) (what ^ ": the single node's rows and texps") true
          (sorted rows = sn_rows);
        Alcotest.(check bool) (what ^ ": the single node's texp(e)") true
          (Time.equal texp_e sn_texp);
        (Coordinator.traffic coord).Coordinator.bytes_received - before
      in
      let full_reads () = counter coord "expirel_cluster_agg_full_reads_total" in
      let delta_reads () = counter coord "expirel_cluster_agg_delta_reads_total" in
      exec_both "CREATE TABLE s (k, g)";
      for k = 1 to 300 do
        exec_both (Printf.sprintf "INSERT INTO s VALUES (%d, %d) EXPIRES %d" k (k mod 100)
                     (1000 + (k mod 7)))
      done;
      ignore (read "first read");
      Alcotest.(check int) "a first read is condensed" 0 (full_reads () + delta_reads ());
      let full = read "second read" in
      Alcotest.(check int) "the second ships every group" 1 (full_reads ());
      let empty = read "no write" in
      Alcotest.(check int) "then deltas" 1 (delta_reads ());
      Alcotest.(check int) "no write, no group: the same empty replies" empty (read "again");
      Alcotest.(check bool) "an empty delta is far smaller than every group" true
        (10 * empty < full);
      exec_both "INSERT INTO s VALUES (301, 1) EXPIRES 2000";
      (* The group ships as its owner holds it: group 1's rows there. *)
      let owner k = Wire.shard_owner (Coordinator.shard_map coord) (Value.Int k) in
      Alcotest.(check int) "one routed write ships one group"
        (empty
        + group_bytes [ Value.Int 1 ]
            (List.filter_map
               (fun (k, texp) -> if owner k = owner 301 then Some (Time.Fin texp) else None)
               [ (1, 1001); (101, 1003); (201, 1005); (301, 2000) ]))
        (read "one write");
      (* An overwrite, a delete and a tick that expires members. *)
      exec_both "INSERT INTO s VALUES (2, 2) EXPIRES 1500";
      exec_both "DELETE FROM s WHERE k = 3";
      exec_both "ADVANCE TO 1002";
      ignore (read "overwrite, delete, tick");
      Alcotest.(check int) "still deltas" 0 (full_reads () - 1);
      (* 600 writes to one row, all on its owner: still one group. *)
      for i = 1 to 600 do
        exec_both (Printf.sprintf "INSERT INTO s VALUES (1, 1) EXPIRES %d" (2000 + i))
      done;
      let before = delta_reads () in
      ignore (read "600 writes to one group");
      Alcotest.(check int) "600 writes, one group: a delta" (before + 1)
        (delta_reads ());
      Alcotest.(check int) "and no full reply" 1 (full_reads ());
      (* 65 distinct shapes (a shape is a text with its literals as
         slots: k points ORed) evict the statement on shard 0; the
         rebuilt entry's delta names each group of shard 0's rows. *)
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port servers.(0)) () in
      let shard0 =
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            for k = 1 to 65 do
              let points = List.init k (fun i -> Printf.sprintf "k = %d" (i + 1)) in
              ignore
                (no_err "evict"
                   (ok (Client.exec c ("SELECT k FROM s WHERE " ^ String.concat " OR " points))))
            done;
            let q = "SELECT g, k FROM s" in
            fst (rows_of q (no_err q (ok (Client.exec c q)))))
      in
      let every_group =
        List.fold_left
          (fun n g ->
            n + group_bytes [ g ] (List.filter_map (fun (row, texp) -> if List.hd row = g then Some texp else None) shard0))
          0
          (List.sort_uniq compare (List.map (fun (row, _) -> List.hd row) shard0))
      in
      let before = delta_reads () in
      let evicted = read "after an eviction" in
      Alcotest.(check int) "an evicted entry ships a delta" (before + 1) (delta_reads ());
      Alcotest.(check int) "not a full reply" 1 (full_reads ());
      Alcotest.(check int) "naming every group" (read "after the eviction's delta" + every_group)
        evicted;
      (* Shard 1 restarts from its store on its old port. *)
      let port = Server.port servers.(1) in
      Server.stop servers.(1);
      servers.(1) <-
        Server.create ~config:{ (config (List.nth dirs 1)) with Server.port } ();
      Server.start servers.(1);
      let rec settle n =
        Coordinator.heartbeat_now coord;
        match Coordinator.exec coord q with
        | Wire.Err { code = Wire.Shard_failed; _ } when n > 0 ->
          Unix.sleepf 0.2;
          settle (n - 1)
        | _ -> ()
      in
      settle 20;
      ignore (read "after a restart");
      Alcotest.(check bool) "a restarted shard ships every group" true (full_reads () >= 2);
      exec_both "INSERT INTO s VALUES (302, 2) EXPIRES 3000";
      let before = delta_reads () in
      ignore (read "a write after the restart");
      Alcotest.(check int) "deltas again" (before + 1) (delta_reads ()));
  (* A shard whose rows are all deleted is pruned, never asked: the
     groups it shipped before must leave the kept answer. *)
  with_cluster 2 (fun coord _servers _eps ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let q = "SELECT g, COUNT(*) FROM p GROUP BY g" in
      let check what =
        let rows, texp_e = rows_of q (exec coord q) in
        match ok (Expirel_sqlx.Interp.exec_sql single q) with
        | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
          Alcotest.(check bool) (what ^ ": the single node's rows") true
            (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
          Alcotest.(check bool) (what ^ ": the single node's texp(e)") true
            (Time.equal texp_e sn_texp)
        | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
      in
      exec_both "CREATE TABLE p (k, g)";
      for k = 1 to 12 do
        exec_both (Printf.sprintf "INSERT INTO p VALUES (%d, %d) EXPIRES 100" k (k mod 3))
      done;
      for _ = 1 to 3 do check "kept" done;
      let map = Coordinator.shard_map coord in
      for k = 1 to 12 do
        if Wire.shard_owner map (Value.Int k) = 1 then
          exec_both (Printf.sprintf "DELETE FROM p WHERE k = %d" k)
      done;
      Alcotest.(check bool) "shard 1 is provably empty" true
        (List.exists
           (fun (id, summary, _) ->
             id = 1
             && match summary with
                | Some { Wire.live_rows = 0; _ } -> true
                | _ -> false)
           (Coordinator.summaries coord));
      check "after shard 1 emptied")

(* A kept GROUP BY COUNT stays the single node's answer when the
   shards' clock moves behind this coordinator's back: another
   coordinator's ADVANCE, or a TICK sent to the shards themselves.  The
   shards ship the groups whose earliest members expired.  An ADVANCE
   that reaches one shard only leaves each shard's groups at its own
   clock, as the stateless merge reads them.  A text's first read at a
   coordinator is the stateless read, even where the shards already
   keep the text standing for another. *)
let test_standing_clock () =
  with_cluster 2 (fun coord servers eps ->
      let other = Coordinator.create ~heartbeat_interval:0. ~shards:eps () in
      Fun.protect ~finally:(fun () -> Coordinator.close other) @@ fun () ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let q = "SELECT g, COUNT(*) FROM c GROUP BY g" in
      let check what =
        let rows, texp_e = rows_of q (exec coord q) in
        match ok (Expirel_sqlx.Interp.exec_sql single q) with
        | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
          Alcotest.(check bool) (what ^ ": the single node's rows and texps") true
            (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
          Alcotest.(check bool) (what ^ ": the single node's texp(e)") true
            (Time.equal texp_e sn_texp)
        | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
      in
      let full_reads c = counter c "expirel_cluster_agg_full_reads_total" in
      let delta_reads c = counter c "expirel_cluster_agg_delta_reads_total" in
      exec_both "CREATE TABLE c (k, g)";
      for k = 1 to 40 do
        exec_both (Printf.sprintf "INSERT INTO c VALUES (%d, %d) EXPIRES %d" k (k mod 4) (10 + k))
      done;
      for _ = 1 to 3 do check "kept" done;
      Alcotest.(check int) "kept: one full read, then a delta" 1 (full_reads coord);
      Alcotest.(check int) "kept: a delta read" 1 (delta_reads coord);
      (* The shards keep the text standing; the other coordinator's first
         read of it still takes their condensed groups, as a read that
         never keeps does. *)
      let received c f =
        let before = (Coordinator.traffic c).Coordinator.bytes_received in
        ignore (no_err q (f ()));
        (Coordinator.traffic c).Coordinator.bytes_received - before
      in
      (* (the first read also learns the table's columns) *)
      ignore (received other (fun () -> Coordinator.exec ~prune:false other q));
      let stateless = received other (fun () -> Coordinator.exec ~prune:false other q) in
      Alcotest.(check int) "another coordinator's first read is stateless" stateless
        (received other (fun () -> Coordinator.exec other q));
      Alcotest.(check int) "and keeps nothing yet" 0 (full_reads other + delta_reads other);
      (* Another coordinator advances the cluster: members expire in
         groups no write touched. *)
      ignore (exec other "ADVANCE TO 20");
      ignore (ok (Expirel_sqlx.Interp.exec_sql single "ADVANCE TO 20"));
      check "after another coordinator's ADVANCE";
      (* A TICK sent to each shard itself. *)
      List.iter
        (fun server ->
          let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              ignore (no_err "tick" (ok (Client.exec c "ADVANCE TO 33")))))
        servers;
      ignore (ok (Expirel_sqlx.Interp.exec_sql single "ADVANCE TO 33"));
      check "after a TICK sent to the shards";
      Alcotest.(check int) "both answered from deltas" 3 (delta_reads coord);
      Alcotest.(check int) "with no further full read" 1 (full_reads coord);
      (* The coordinator's clock moved with them. *)
      Alcotest.(check bool) "a past AT is refused at the shards' clock" true
        (match Coordinator.exec coord "SELECT g, COUNT(*) FROM c AT 25 GROUP BY g" with
         | Wire.Err _ -> true
         | _ -> false);
      (* An ADVANCE that reaches shard 0 only: the kept answer is the
         stateless merge's, each shard read at its own clock. *)
      let advance server sql =
        let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            ignore (no_err sql (ok (Client.exec c sql))))
      in
      let stateless what =
        let rows, texp_e = rows_of q (exec coord q) in
        let sl_rows, sl_texp = rows_of q (no_err q (Coordinator.exec ~prune:false coord q)) in
        Alcotest.(check bool) (what ^ ": the stateless merge's rows and texps") true
          (sorted rows = sorted sl_rows);
        Alcotest.(check bool) (what ^ ": the stateless merge's texp(e)") true
          (Time.equal texp_e sl_texp)
      in
      advance (List.hd servers) "ADVANCE TO 40";
      stateless "after an ADVANCE on one shard";
      Alcotest.(check int) "a delta read" 4 (delta_reads coord);
      List.iter (fun server -> advance server "ADVANCE TO 40") (List.tl servers);
      ignore (ok (Expirel_sqlx.Interp.exec_sql single "ADVANCE TO 40"));
      stateless "once every shard caught up";
      check "once every shard caught up")

(* Deltas that ship most groups are applied like any other: after
   writes that touch every group, each read is a delta read, and every
   answer stays the single node's — across a tick that expires members
   no write touched, and back to light deltas. *)
let test_standing_rests () =
  with_cluster 2 (fun coord _servers _eps ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let q = "SELECT g, COUNT(*) FROM r GROUP BY g" in
      let check what =
        let rows, texp_e = rows_of q (exec coord q) in
        match ok (Expirel_sqlx.Interp.exec_sql single q) with
        | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
          Alcotest.(check bool) (what ^ ": the single node's rows and texps") true
            (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
          Alcotest.(check bool) (what ^ ": the single node's texp(e)") true
            (Time.equal texp_e sn_texp)
        | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
      in
      let reads () =
        ( counter coord "expirel_cluster_agg_full_reads_total",
          counter coord "expirel_cluster_agg_delta_reads_total" )
      in
      exec_both "CREATE TABLE r (k, g)";
      let write_all texp =
        for k = 1 to 400 do
          exec_both (Printf.sprintf "INSERT INTO r VALUES (%d, %d) EXPIRES %d" k (k mod 200) texp)
        done
      in
      write_all 100;
      for _ = 1 to 3 do check "kept" done;
      Alcotest.(check (pair int int)) "one full read, one delta" (1, 1) (reads ());
      write_all 150;
      check "every group written";
      Alcotest.(check (pair int int)) "a heavy delta" (1, 2) (reads ());
      exec_both "INSERT INTO r VALUES (1, 1) EXPIRES 120";
      check "after a heavy delta";
      exec_both "ADVANCE TO 110";
      check "across a tick";
      Alcotest.(check (pair int int)) "both delta reads" (1, 4) (reads ());
      write_all 200;
      check "every group written again";
      exec_both "INSERT INTO r VALUES (2, 2) EXPIRES 130";
      check "light again";
      Alcotest.(check (pair int int)) "and still deltas" (1, 6) (reads ()))

(* A shard's connection and its replies to a kept read of [sql] naming
   a version: the groups and how they were held.  An error reply fails
   the test. *)
let kept_read c sql version =
  match
    ok (Client.request c (Wire.Shard_exec { sql; ctx = None; want = Wire.Want_agg (Some version) }))
  with
  | Wire.Shard_reply { body = Wire.Body_agg { groups; held = Some h; _ }; _ } -> Some (groups, h)
  | Wire.Shard_reply _ -> None
  | r -> Alcotest.failf "version %d: %s" version (Wire.render_response r)

(* A TICK alone, no write, crossing the nu of more than 512 groups on
   one shard: the next read ships those groups as a delta, one delta
   read, and stays the single node's answer. *)
let test_standing_tick_past_log () =
  with_cluster 2 (fun coord servers _eps ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let q = "SELECT g, COUNT(*) FROM x GROUP BY g" in
      let check what =
        let rows, texp_e = rows_of q (exec coord q) in
        match ok (Expirel_sqlx.Interp.exec_sql single q) with
        | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
          Alcotest.(check bool) (what ^ ": the single node's rows and texps") true
            (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
          Alcotest.(check bool) (what ^ ": the single node's texp(e)") true
            (Time.equal texp_e sn_texp)
        | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
      in
      let reads () =
        ( counter coord "expirel_cluster_agg_full_reads_total",
          counter coord "expirel_cluster_agg_delta_reads_total" )
      in
      (* Group g lives on the owner of k = g: a member expiring at 10,
         another at 50. *)
      let groups = 1200 in
      exec_both "CREATE TABLE x (k, g, n)";
      for g = 1 to groups do
        exec_both (Printf.sprintf "INSERT INTO x VALUES (%d, %d, 1) EXPIRES 10" g g);
        exec_both (Printf.sprintf "INSERT INTO x VALUES (%d, %d, 2) EXPIRES 50" g g)
      done;
      let map = Coordinator.shard_map coord in
      let owned id =
        List.length
          (List.filter (fun g -> Wire.shard_owner map (Value.Int g) = id) (List.init groups succ))
      in
      let big = if owned 0 > owned 1 then 0 else 1 in
      Alcotest.(check bool) "a shard holds more than 512 groups" true (owned big > 512);
      for _ = 1 to 3 do check "kept" done;
      Alcotest.(check (pair int int)) "one full read, one delta" (1, 1) (reads ());
      (* The same entry, read on a connection of its own. *)
      let port =
        (List.find (fun s -> s.Wire.shard_id = big) map.Wire.shards).Wire.shard_port
      in
      let server = List.find (fun s -> Server.port s = port) servers in
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let base =
        match kept_read c q 0 with
        | Some (_, h) -> h.Wire.version
        | None -> Alcotest.fail "the shard answers from its entry"
      in
      exec_both "TICK 12";
      (match kept_read c q base with
       | Some (shipped, h) ->
         Alcotest.(check bool) "the TICK's groups are a delta" false h.Wire.full;
         Alcotest.(check int) "listing every group the TICK crossed" (owned big)
           (List.length shipped)
       | None -> Alcotest.fail "the shard answers from its entry");
      check "after the TICK";
      Alcotest.(check (pair int int)) "the TICK's read is one delta read" (1, 2) (reads ());
      check "after the delta read";
      Alcotest.(check (pair int int)) "then deltas again" (1, 3) (reads ()))

(* A kept read naming version 0, a negative version, one ahead of the
   connection, or one issued on another connection gets every group,
   never an error. *)
let test_standing_cursor_bounds () =
  with_cluster 1 (fun coord servers _eps ->
      ignore (exec coord "CREATE TABLE b (k, g)");
      for k = 1 to 12 do
        ignore (exec coord (Printf.sprintf "INSERT INTO b VALUES (%d, %d) EXPIRES 100" k (k mod 3)))
      done;
      let sql = "SELECT g, COUNT(*) FROM b GROUP BY g" in
      let connect () = Client.connect ~host:"127.0.0.1" ~port:(Server.port (List.hd servers)) () in
      let c = connect () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* the first ask plans the text; the second promotes it *)
      ignore (kept_read c sql 0);
      let all, h =
        match kept_read c sql 0 with
        | Some reply -> reply
        | None -> Alcotest.fail "the promoted text answers from its entry"
      in
      Alcotest.(check int) "every group" 3 (List.length all);
      let groups ?(c = c) version =
        match kept_read c sql version with
        | Some (groups, h) -> (h.Wire.full, List.length groups)
        | None -> Alcotest.fail "the entry answers"
      in
      Alcotest.(check (pair bool int)) "its own version: nothing written" (false, 0)
        (groups h.Wire.version);
      List.iter
        (fun version ->
          Alcotest.(check (pair bool int))
            (Printf.sprintf "version %d: every group" version)
            (true, 3) (groups version))
        [ 0; -1; -5; min_int; h.Wire.version + 100; max_int ];
      let other = connect () in
      Fun.protect ~finally:(fun () -> Client.close other) @@ fun () ->
      let theirs =
        match kept_read other sql 0 with
        | Some (_, h) -> h.Wire.version
        | None -> Alcotest.fail "the entry answers the other connection"
      in
      Alcotest.(check (pair bool int))
        (Printf.sprintf "version %d of another connection: every group" theirs)
        (true, 3) (groups theirs))

(* A copy names only a version whose reply it recorded.  Shard A's copy
   records version 1; rows are written to A, A restarts from its store
   (its connection's versions count from 1 again) and B stops.  The
   next read fails, while A answers every group as version 1, a reply
   the coordinator never records: the copies drop to version 0, so the
   read after B returns gets every group again, not a delta against
   that unrecorded reply, and equals the single node's answer. *)
let test_standing_unrecorded_version () =
  let dirs = List.init 2 (fun _ -> Filename.temp_dir "expirel" "shard") in
  let config dir = { shard_config with Server.data_dir = Some dir } in
  let servers = Array.of_list (List.map (fun dir -> Server.create ~config:(config dir) ()) dirs) in
  Array.iter Server.start servers;
  Fun.protect
    ~finally:(fun () ->
      Array.iter Server.stop servers;
      List.iter
        (fun dir ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        dirs)
    (fun () ->
      let coord =
        Coordinator.create ~heartbeat_interval:0.
          ~shards:
            (Array.to_list
               (Array.map (fun s -> { Coordinator.host = "127.0.0.1"; port = Server.port s }) servers))
          ()
      in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let q = "SELECT g, COUNT(*) FROM u GROUP BY g" in
      let check what =
        let rows, texp_e = rows_of q (exec coord q) in
        match ok (Expirel_sqlx.Interp.exec_sql single q) with
        | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
          Alcotest.(check bool) (what ^ ": the single node's rows and texps") true
            (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
          Alcotest.(check bool) (what ^ ": the single node's texp(e)") true
            (Time.equal texp_e sn_texp)
        | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
      in
      exec_both "CREATE TABLE u (k, g)";
      for k = 1 to 40 do
        exec_both (Printf.sprintf "INSERT INTO u VALUES (%d, %d) EXPIRES 100" k (k mod 5))
      done;
      check "stateless";
      check "every group, as version 1";
      Alcotest.(check int) "one full read" 1 (counter coord "expirel_cluster_agg_full_reads_total");
      let map = Coordinator.shard_map coord in
      let a = Wire.shard_owner map (Value.Int 1) in
      let b = 1 - a in
      for k = 41 to 60 do
        if Wire.shard_owner map (Value.Int k) = a then
          exec_both (Printf.sprintf "INSERT INTO u VALUES (%d, %d) EXPIRES 100" k (k mod 5))
      done;
      let reachable id =
        Coordinator.heartbeat_now coord;
        List.exists (fun (id', _, up) -> id' = id && up) (Coordinator.summaries coord)
      in
      let rec settle id n =
        if not (reachable id) then
          if n = 0 then Alcotest.failf "shard %d stays unreachable" id
          else begin
            Unix.sleepf 0.1;
            settle id (n - 1)
          end
      in
      let restart id =
        let port = Server.port servers.(id) in
        servers.(id) <- Server.create ~config:{ (config (List.nth dirs id)) with Server.port } ();
        Server.start servers.(id)
      in
      Server.stop servers.(a);
      restart a;
      settle a 50;
      Server.stop servers.(b);
      (match Coordinator.exec coord q with
       | Wire.Err { code = Wire.Shard_failed; _ } -> ()
       | r -> Alcotest.failf "with shard %d down: %s" b (Wire.render_response r));
      restart b;
      settle b 50;
      check "after the failed read")

(* ---------- routing: inserts land on the owner ---------- *)

let test_insert_routing () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      let n = 50 in
      for k = 1 to n do
        ignore
          (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, 0) EXPIRES 100" k))
      done;
      Coordinator.heartbeat_now coord;
      let map = Coordinator.shard_map coord in
      let expected shard_id =
        List.length
          (List.filter
             (fun k -> Wire.shard_owner map (Value.int k) = shard_id)
             (List.init n (fun i -> i + 1)))
      in
      List.iter
        (fun (id, summary, _) ->
          match summary with
          | None -> Alcotest.fail "summary unknown after heartbeat"
          | Some { Wire.live_rows; _ } ->
            Alcotest.(check int)
              (Printf.sprintf "shard %d row count" id)
              (expected id) live_rows)
        (Coordinator.summaries coord);
      (* All shards hold something: the routing actually spreads. *)
      List.iter
        (fun (id, summary, _) ->
          match summary with
          | Some { Wire.live_rows; _ } ->
            if live_rows = 0 then
              Alcotest.fail (Printf.sprintf "shard %d got no rows" id)
          | None -> ())
        (Coordinator.summaries coord))

(* ---------- (b) pruning: skip expired shards, same answers ---------- *)

let shard_requests coord id =
  let needle = Printf.sprintf "expirel_cluster_shard_requests_total{shard=\"%d\"}" id in
  let metrics = Coordinator.metrics coord in
  let rec find i =
    match String.index_from_opt metrics i '\n' with
    | None -> Alcotest.fail ("metric not found: " ^ needle)
    | Some j ->
      let line = String.sub metrics i (j - i) in
      if
        String.length line > String.length needle
        && String.sub line 0 (String.length needle) = needle
      then
        int_of_float
          (float_of_string
             (String.trim
                (String.sub line (String.length needle)
                   (String.length line - String.length needle))))
      else find (j + 1)
  in
  find 0

let test_pruning () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      (* Give every shard rows, with one shard's whole partition dying
         early: find a key per shard, give one shard only short-lived
         rows. *)
      let map = Coordinator.shard_map coord in
      let key_on shard_id =
        let rec hunt k =
          if Wire.shard_owner map (Value.int k) = shard_id then k
          else hunt (k + 1)
        in
        hunt 1
      in
      let doomed = 2 in
      List.iter
        (fun (id, _, _) ->
          let k = key_on id in
          let texp = if id = doomed then 10 else 100 in
          ignore
            (exec coord
               (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k id
                  texp)))
        (Coordinator.summaries coord);
      let q = "SELECT * FROM t" in
      let before_rows, before_texp = rows_of q (exec coord q) in
      Alcotest.(check int) "all three rows live" 3 (List.length before_rows);
      ignore (exec coord "ADVANCE TO 50");
      (* The doomed shard's partition is now fully expired; its ADVANCE
         ack already refreshed the summary, so the very next fan-out
         skips it. *)
      let req_before = shard_requests coord doomed in
      let pruned_before = (Coordinator.traffic coord).Coordinator.pruned in
      let pruned_rows, pruned_texp = rows_of q (exec coord q) in
      Alcotest.(check int) "doomed shard not contacted" req_before
        (shard_requests coord doomed);
      Alcotest.(check bool) "pruned counter advanced" true
        ((Coordinator.traffic coord).Coordinator.pruned > pruned_before);
      (* The forced broadcast DOES contact it — that is the baseline the
         soundness check compares against. *)
      let broadcast_rows, broadcast_texp =
        rows_of q (no_err q (Coordinator.exec ~prune:false coord q))
      in
      Alcotest.(check int) "broadcast contacts it" (req_before + 1)
        (shard_requests coord doomed);
      (* The soundness contract: pruning never changes the answer. *)
      Alcotest.(check bool) "pruned == broadcast rows" true
        (sorted pruned_rows = sorted broadcast_rows);
      Alcotest.(check bool) "pruned == broadcast texp(e)" true
        (Time.equal pruned_texp broadcast_texp);
      ignore (before_texp);
      (* An insert into the pruned shard un-prunes it in one round trip:
         the routed write's ack refreshes the summary. *)
      let k = key_on doomed in
      ignore
        (exec coord
           (Printf.sprintf "INSERT INTO t VALUES (%d, 9) EXPIRES 200" k));
      let revived, _ = rows_of q (exec coord q) in
      Alcotest.(check int) "revived shard answers again" 3 (List.length revived))

(* ---------- (c) one trace id across coordinator and shards ---------- *)

let test_cross_node_trace () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k)");
      List.iter
        (fun k ->
          ignore
            (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d) EXPIRES 99" k)))
        [ 1; 2; 3; 4; 5 ];
      let q = "SELECT * FROM t" in
      ignore (exec coord q);
      (* The coordinator finished its own entry for [q]; its id must
         also appear in entries recorded by shard nodes. *)
      let entries = Coordinator.recent_traces coord 50 in
      let own =
        match
          List.find_opt
            (fun (e : Obs.Trace_store.entry) ->
              e.name = q && e.node = "coordinator")
            entries
        with
        | Some e -> e
        | None -> Alcotest.fail "coordinator trace entry missing"
      in
      let same_trace =
        List.filter
          (fun (e : Obs.Trace_store.entry) -> e.trace_id = own.trace_id)
          entries
      in
      let nodes =
        List.sort_uniq compare
          (List.map (fun (e : Obs.Trace_store.entry) -> e.node) same_trace)
      in
      Alcotest.(check bool) "trace spans >= 2 nodes" true
        (List.length nodes >= 2);
      Alcotest.(check bool) "coordinator lane present" true
        (List.mem "coordinator" nodes);
      (* The coordinator lane carries the fan-out spans. *)
      Alcotest.(check bool) "rpc spans recorded" true
        (List.exists
           (fun (s : Obs.Trace.span) -> String.starts_with ~prefix:"rpc:" s.name)
           own.spans);
      (* The union-rule merge runs under its own top-level span. *)
      Alcotest.(check bool) "top-level merge span" true
        (List.exists
           (fun (s : Obs.Trace.span) -> s.name = "merge" && s.parent = None)
           own.spans);
      (* And the merged view exports as one Chrome trace containing
         both node names. *)
      let json = Obs.Trace_export.to_json same_trace in
      let contains needle =
        let n = String.length needle and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "export has a coordinator lane" true
        (contains "coordinator");
      Alcotest.(check bool) "export has a shard lane" true
        (List.exists
           (fun node -> node <> "coordinator" && contains node)
           nodes))

(* A distributed GROUP BY's shard side runs through the executor: each
   shard's trace shows the fold as an [op:aggregate] span inside
   [eval], with the batched scan it folds nested beneath it — so its
   time is the aggregate operator's, not unattributed shard time. *)
let test_shard_fold_span () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      for i = 1 to 30 do
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" i
                (i mod 4) (10 + i)))
      done;
      let q = "SELECT v, COUNT(*) FROM t GROUP BY v" in
      let rows, _ = rows_of q (exec coord q) in
      Alcotest.(check int) "four groups" 4 (List.length rows);
      let entries = Coordinator.recent_traces coord 100 in
      let own =
        match
          List.find_opt
            (fun (e : Obs.Trace_store.entry) ->
              e.name = q && e.node = "coordinator")
            entries
        with
        | Some e -> e
        | None -> Alcotest.fail "coordinator trace entry missing"
      in
      (* The coordinator merges and finalises the partials under a
         top-level span of its own. *)
      Alcotest.(check bool) "coordinator merge span" true
        (List.exists
           (fun (s : Obs.Trace.span) -> s.name = "merge" && s.parent = None)
           own.spans);
      let shard_entries =
        List.filter
          (fun (e : Obs.Trace_store.entry) ->
            e.trace_id = own.trace_id && e.node <> "coordinator")
          entries
      in
      Alcotest.(check int) "one entry per shard" 3 (List.length shard_entries);
      List.iter
        (fun (e : Obs.Trace_store.entry) ->
          let named n =
            List.find_opt (fun (s : Obs.Trace.span) -> s.name = n) e.spans
          in
          let parent_name (s : Obs.Trace.span) =
            match s.parent with
            | None -> None
            | Some id ->
              List.find_map
                (fun (p : Obs.Trace.span) ->
                  if p.id = id then Some p.name else None)
                e.spans
          in
          let rec under ancestor (s : Obs.Trace.span) =
            match s.parent with
            | None -> false
            | Some id ->
              (match
                 List.find_opt (fun (p : Obs.Trace.span) -> p.id = id) e.spans
               with
               | None -> false
               | Some p -> p.name = ancestor || under ancestor p)
          in
          match named "op:aggregate", named "op:seq-scan" with
          | Some agg, Some scan ->
            Alcotest.(check (option string))
              (e.node ^ ": aggregate inside eval") (Some "eval")
              (parent_name agg);
            Alcotest.(check bool)
              (e.node ^ ": scan nested under the aggregate") true
              (under "op:aggregate" scan)
          | _ -> Alcotest.failf "%s: no op:aggregate/op:seq-scan span" e.node)
        shard_entries)

(* ---------- rebalance: add/remove preserves contents ---------- *)

let test_rebalance () =
  with_cluster 3 (fun coord _servers _eps ->
      List.iter (fun sql -> ignore (exec coord sql)) statements;
      let q = "SELECT * FROM pol" in
      let before, before_texp = rows_of q (exec coord q) in
      (* Grow to four shards... *)
      let extra = Server.create ~config:shard_config () in
      Server.start extra;
      Fun.protect
        ~finally:(fun () -> Server.stop extra)
        (fun () ->
          (match
             Coordinator.add_shard coord
               { Coordinator.host = "127.0.0.1"; port = Server.port extra }
           with
           | Ok _ -> ()
           | Error e -> Alcotest.fail ("add_shard: " ^ e));
          Alcotest.(check int) "map grew" 4
            (List.length (Coordinator.shard_map coord).Wire.shards);
          let after_add, add_texp = rows_of q (exec coord q) in
          Alcotest.(check bool) "same rows after add" true
            (sorted before = sorted after_add);
          Alcotest.(check bool) "same texp(e) after add" true
            (Time.equal before_texp add_texp);
          (* ...and shrink back to three. *)
          (match Coordinator.remove_shard coord 0 with
           | Ok _ -> ()
           | Error e -> Alcotest.fail ("remove_shard: " ^ e));
          Alcotest.(check int) "map shrank" 3
            (List.length (Coordinator.shard_map coord).Wire.shards);
          let after_remove, remove_texp = rows_of q (exec coord q) in
          Alcotest.(check bool) "same rows after remove" true
            (sorted before = sorted after_remove);
          Alcotest.(check bool) "same texp(e) after remove" true
            (Time.equal before_texp remove_texp)))

(* ---------- a client reaches a cluster as it reaches a node ---------- *)

let connect port = Client.connect ~host:"127.0.0.1" ~port ()

(* A sample's value on a METRICS page, by its full name and labels. *)
let sample page name =
  List.fold_left
    (fun acc line ->
      match String.rindex_opt line ' ' with
      | Some i when String.sub line 0 i = name ->
        float_of_string (String.sub line (i + 1) (String.length line - i - 1))
      | Some _ | None -> acc)
    0. (String.split_on_char '\n' page)

(* One script through [Client], against a listening 3-shard coordinator
   and against one node holding the union: DDL, routed and broadcast
   writes, ADVANCE and TICK, point, scatter, GROUP BY, AVG, join and
   sketch reads.  Every query answers the same rows in the same order,
   with the same per-row texps and texp(e), or the same error; the
   80-row read is held on both sides, so each re-read after a write is
   a delta the coordinator counts as the node counts its own. *)
let test_client_reaches_cluster () =
  with_cluster 3 (fun coord _servers _eps ->
      let node = Server.create ~config:shard_config () in
      Server.start node;
      let cluster = connect (Coordinator.listen coord) in
      let single = connect (Server.port node) in
      Fun.protect
        ~finally:(fun () ->
          Client.close cluster;
          Client.close single;
          Server.stop node)
        (fun () ->
          let run sql =
            match (ok (Client.exec cluster sql), ok (Client.exec single sql)) with
            | Wire.Rows c, Wire.Rows n ->
              Alcotest.(check bool) (sql ^ ": same rows and texps") true (c.rows = n.rows);
              Alcotest.(check bool) (sql ^ ": same texp(e)") true
                (Time.equal c.texp_e n.texp_e)
            | (Wire.Ok_msg _ as c), (Wire.Ok_msg _ as n) ->
              if String.starts_with ~prefix:"DELETE" sql then
                Alcotest.(check int) (sql ^ ": same count") (ack_count n) (ack_count c)
            | Wire.Err c, Wire.Err n ->
              Alcotest.(check string) (sql ^ ": the node's error") n.message c.message
            | c, n ->
              Alcotest.failf "%s: %s against %s" sql (Wire.render_response c)
                (Wire.render_response n)
          in
          List.iter run statements;
          run "INSERT INTO aux VALUES (12, 30) EXPIRES 22";
          run "CREATE TABLE big (k, v)";
          for k = 1 to 80 do
            run (Printf.sprintf "INSERT INTO big VALUES (%d, %d) EXPIRES %d" k (k mod 5) (20 + k))
          done;
          let reads =
            queries
            @ [ "SELECT * FROM pol WHERE uid = 3";
                "SELECT deg, COUNT(*) FROM pol GROUP BY deg";
                "SELECT deg, AVG(uid) FROM pol GROUP BY deg ORDER BY deg";
                "SELECT AVG(deg) FROM pol";
                "SELECT * FROM pol JOIN aux ON pol.uid = aux.uid";
                "SELECT * FROM pol JOIN aux ON pol.deg = aux.tag";
                "SELECT APPROX_COUNT(0.1) FROM pol";
                "SELECT SAMPLE(100) FROM pol";
                "SELECT k, v FROM big";
                "SELECT v, COUNT(*) FROM big GROUP BY v" ]
          in
          List.iter run reads;
          List.iter
            (fun write ->
              run write;
              List.iter run reads)
            [ "INSERT INTO big VALUES (81, 1) EXPIRES 50";
              "DELETE FROM big WHERE k = 7";
              "DELETE FROM pol WHERE deg = 40";
              "TICK 2";
              "ADVANCE TO 21" ];
          let deltas client = sample (ok (Client.metrics client)) "expirel_held_replies_total{reply=\"delta\"}" in
          Alcotest.(check (float 0.)) "one held delta per write" 5. (deltas cluster);
          Alcotest.(check (float 0.)) "as the node counts them" (deltas single) (deltas cluster);
          (* the held reply itself *)
          let read held =
            ok (Client.request cluster (Wire.Statement { sql = "SELECT k, v FROM big"; ctx = None; held }))
          in
          match read None with
          | Wire.Held_rows { version; body = Wire.Held_whole _ } ->
            run "INSERT INTO big VALUES (82, 2) EXPIRES 60";
            (match read (Some version) with
             | Wire.Held_rows { body = Wire.Held_delta { base; upserts; removed; _ }; _ } ->
               Alcotest.(check int) "the delta patches the named version" version base;
               Alcotest.(check int) "one row changed" 1 (List.length upserts + List.length removed)
             | r -> Alcotest.failf "expected a held delta, got %s" (Wire.render_response r))
          | r -> Alcotest.failf "expected a whole held answer, got %s" (Wire.render_response r)))

(* TRACE, SLOW, HEALTH, HORIZON and METRICS over a coordinator's socket
   answer what the in-process calls answer; a statement sent over the
   socket is traced across the coordinator and the shards it reached;
   SUBSCRIBE is refused and the session goes on. *)
let test_coordinator_answers_the_wire () =
  with_cluster 3 (fun coord _servers _eps ->
      let c = connect (Coordinator.listen coord) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter (fun sql -> ignore (no_err sql (ok (Client.exec c sql)))) statements;
          ignore (no_err "select" (ok (Client.exec c "SELECT uid, deg FROM pol")));
          Alcotest.(check bool) "HORIZON" true
            (ok (Client.horizon c) = ok (Coordinator.horizon coord));
          Alcotest.(check bool) "HORIZON pol" true
            (ok (Client.horizon ~table:"pol" c) = ok (Coordinator.horizon ~table:"pol" coord));
          Alcotest.(check bool) "three shards in the breakdown" true
            (List.length (ok (Client.horizon c)).Obs.Horizon.shards = 3);
          Alcotest.(check bool) "HEALTH" true (ok (Client.health c) = Coordinator.health coord);
          let traces = ok (Client.traces c 50) in
          Alcotest.(check bool) "TRACE" true (traces = Coordinator.recent_traces coord 50);
          Alcotest.(check bool) "SLOW" true
            (ok (Client.slow_queries c 5)
            = Obs.Trace_store.slowest (Coordinator.trace_store coord) 5);
          (match
             List.find_opt
               (fun (e : Obs.Trace_store.entry) ->
                 e.node = "coordinator" && e.name = "SELECT uid, deg FROM pol")
               traces
           with
           | None -> Alcotest.fail "the socket's statement left no coordinator trace"
           | Some e ->
             Alcotest.(check bool) "its trace id spans a shard" true
               (List.exists
                  (fun (s : Obs.Trace_store.entry) ->
                    s.trace_id = e.trace_id && s.node <> "coordinator")
                  traces));
          let cluster_lines page =
            List.filter
              (fun line ->
                String.starts_with ~prefix:"expirel_cluster_" line
                || String.starts_with ~prefix:"# TYPE" line)
              (String.split_on_char '\n' page)
          in
          Alcotest.(check (list string)) "METRICS"
            (cluster_lines (Coordinator.metrics coord))
            (cluster_lines (ok (Client.metrics c)));
          (match Client.subscribe c ~name:"w" ~query:"SELECT uid FROM pol" with
           | Error _ -> ()
           | Ok () -> Alcotest.fail "a coordinator took a SUBSCRIBE");
          ignore (rows_of "after SUBSCRIBE" (no_err "after" (ok (Client.exec c "SELECT * FROM pol"))))))

(* SHARDS, ADD SHARD and REMOVE SHARD are a coordinator's statements: a
   client grows and shrinks the cluster over the socket and its
   contents stay exact.  A node answers them as a parse error. *)
let test_membership_statements () =
  with_cluster 3 (fun coord servers _eps ->
      let c = connect (Coordinator.listen coord) in
      let exec sql = no_err sql (ok (Client.exec c sql)) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter (fun sql -> ignore (exec sql)) statements;
          let q = "SELECT * FROM pol" in
          let before, before_texp = rows_of q (exec q) in
          (match exec "SHARDS" with
           | Wire.Ok_msg m ->
             Alcotest.(check (list string)) "one line per shard"
               [ "shard 0: reachable"; "shard 1: reachable"; "shard 2: reachable" ]
               (List.map
                  (fun line -> List.hd (String.split_on_char ',' line))
                  (String.split_on_char '\n' m))
           | r -> Alcotest.failf "SHARDS: %s" (Wire.render_response r));
          let extra = Server.create ~config:shard_config () in
          Server.start extra;
          Fun.protect
            ~finally:(fun () -> Server.stop extra)
            (fun () ->
              ignore (exec (Printf.sprintf "ADD SHARD 127.0.0.1:%d" (Server.port extra)));
              Alcotest.(check int) "map grew" 4
                (List.length (Coordinator.shard_map coord).Wire.shards);
              let after_add, add_texp = rows_of q (exec q) in
              Alcotest.(check bool) "same rows after add" true (sorted before = sorted after_add);
              Alcotest.(check bool) "same texp(e) after add" true (Time.equal before_texp add_texp);
              ignore (exec "REMOVE SHARD 0");
              Alcotest.(check int) "map shrank" 3
                (List.length (Coordinator.shard_map coord).Wire.shards);
              let after_remove, remove_texp = rows_of q (exec q) in
              Alcotest.(check bool) "same rows after remove" true
                (sorted before = sorted after_remove);
              Alcotest.(check bool) "same texp(e) after remove" true
                (Time.equal before_texp remove_texp));
          (match ok (Client.exec c "REMOVE SHARD 99") with
           | Wire.Err { code = Wire.Exec_error; _ } -> ()
           | r -> Alcotest.failf "an unknown shard removed: %s" (Wire.render_response r));
          (match ok (Client.exec c "REMOVE SHARD x") with
           | Wire.Err { code = Wire.Parse_error; _ } -> ()
           | r -> Alcotest.failf "a bad shard id parsed: %s" (Wire.render_response r));
          let node = connect (Server.port (List.nth servers 1)) in
          Fun.protect
            ~finally:(fun () -> Client.close node)
            (fun () ->
              match ok (Client.exec node "SHARDS") with
              | Wire.Err { code = Wire.Parse_error; _ } -> ()
              | r -> Alcotest.failf "a node answered SHARDS: %s" (Wire.render_response r))))

(* A joining shard gets the indexes the coordinator broadcast, so the
   rows moved onto it are served by index paths, not cut scans. *)
let test_add_shard_replays_indexes () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE pol (uid, deg)");
      ignore (exec coord "CREATE INDEX ON pol (uid)");
      for uid = 1 to 60 do
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO pol VALUES (%d, %d) EXPIRES 100" uid
                (uid mod 7)))
      done;
      let extra = Server.create ~config:shard_config () in
      Server.start extra;
      Fun.protect
        ~finally:(fun () -> Server.stop extra)
        (fun () ->
          (match
             Coordinator.add_shard coord
               { Coordinator.host = "127.0.0.1"; port = Server.port extra }
           with
           | Ok _ -> ()
           | Error e -> Alcotest.fail ("add_shard: " ^ e));
          let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port extra) () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let direct sql = no_err sql (ok (Client.exec c sql)) in
              match rows_of "moved rows" (direct "SELECT uid FROM pol") with
              | (uid :: _, _) :: _ :: _, _ ->
                let sql =
                  Printf.sprintf "EXPLAIN SELECT * FROM pol WHERE uid = %s"
                    (Value.to_string uid)
                in
                (match direct sql with
                 | Wire.Ok_msg text ->
                   Alcotest.(check bool)
                     ("the joining shard probes its index: " ^ text) true
                     (string_contains text "index-eq")
                 | r -> Alcotest.failf "%s: %s" sql (Wire.render_response r))
              | _ -> Alcotest.fail "fewer than two rows moved to the joining shard")))

(* ---------- health: silent and amnesiac shards degrade ---------- *)

let test_health_unreachable () =
  with_cluster 3 (fun coord servers _eps ->
      Coordinator.heartbeat_now coord;
      (match Coordinator.health coord with
       | { level = Ok; _ } -> ()
       | _ -> Alcotest.fail "expected ok with all shards up");
      (* One shard goes silent: degraded, not critical. *)
      Server.stop (List.nth servers 2);
      Coordinator.heartbeat_now coord;
      (match Coordinator.health coord with
       | { level = Degraded; firing } ->
         Alcotest.(check bool) "unreachable rule fires" true
           (List.exists
              (fun (f : Obs.Health.firing) -> f.rule_name = "unreachable_shards")
              firing)
       | { level; _ } ->
         Alcotest.fail
           ("expected degraded, got "
           ^ Wire.render_response (Wire.Health_reply { level; firing = [] })));
      (* A majority gone: critical. *)
      Server.stop (List.nth servers 1);
      Coordinator.heartbeat_now coord;
      match Coordinator.health coord with
      | { level = Critical; _ } -> ()
      | _ -> Alcotest.fail "expected critical with a majority down")

let test_health_stale_map () =
  with_shards 3 (fun servers endpoints ->
      let coord = Coordinator.create ~heartbeat_interval:0. ~shards:endpoints () in
      Fun.protect
        ~finally:(fun () -> Coordinator.close coord)
        (fun () ->
          (* Restart shard 1 on its old port: the replacement answers
             pings under another boot id — it lost its partition.  The
             restart rule must surface that; a summary-refreshing pong
             alone must not mask it. *)
          let port = Server.port (List.nth servers 1) in
          Server.stop (List.nth servers 1);
          let replacement =
            Server.create
              ~config:{ shard_config with Server.port = port }
              ()
          in
          Server.start replacement;
          Fun.protect
            ~finally:(fun () -> Server.stop replacement)
            (fun () ->
              Coordinator.heartbeat_now coord;
              (* First round may find the connection dead and only
                 redial; give backoff one more deterministic round. *)
              Unix.sleepf 0.15;
              Coordinator.heartbeat_now coord;
              Unix.sleepf 0.3;
              Coordinator.heartbeat_now coord;
              match Coordinator.health coord with
              | { level = Degraded | Critical; firing } ->
                Alcotest.(check bool) "stale rule fires" true
                  (List.exists
                     (fun (f : Obs.Health.firing) ->
                       f.rule_name = "restarted_shards"
                       || f.rule_name = "unreachable_shards")
                     firing)
              | { level = Ok; _ } ->
                Alcotest.fail "restarted shard read healthy")))

(* Claiming the shards is the priming heartbeat alone: one message to
   each. *)
let test_create_one_round () =
  with_cluster 3 (fun coord _servers _eps ->
      Alcotest.(check int) "messages after create" 3
        (Coordinator.traffic coord).Coordinator.messages)

(* ---------- refusals: only per-node features are left ---------- *)

let test_refusals () =
  with_cluster 2 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      ignore (exec coord "CREATE TABLE u (k, w)");
      ignore (exec coord "INSERT INTO t VALUES (1, 10) EXPIRES 50");
      ignore (exec coord "INSERT INTO u VALUES (1, 7) EXPIRES 50");
      let refused sql =
        match Coordinator.exec coord sql with
        | Wire.Err { message; _ } ->
          Alcotest.(check bool)
            (sql ^ ": refusal names the per-node features") true
            (string_contains message "per-node features")
        | r ->
          Alcotest.fail
            (Printf.sprintf "%s should be refused, got %s" sql
               (Wire.render_response r))
      in
      let answers sql =
        match Coordinator.exec coord sql with
        | Wire.Rows _ -> ()
        | r ->
          Alcotest.fail
            (Printf.sprintf "%s should answer, got %s" sql
               (Wire.render_response r))
      in
      (* The former refusals — AVG, GROUP BY, joins, projected set
         operations — now distribute (or gather-and-compute). *)
      answers "SELECT AVG(v) FROM t";
      answers "SELECT k, SUM(v) FROM t GROUP BY k";
      answers "SELECT * FROM t JOIN u ON t.k = u.k";
      answers "SELECT v FROM t EXCEPT SELECT w FROM u";
      (* Only per-node features remain refused, saying exactly that. *)
      refused "CREATE VIEW x AS SELECT * FROM t";
      refused "CREATE TRIGGER audit ON t";
      refused "CREATE CONSTRAINT cover ON SELECT k FROM t MIN 1";
      refused "CHECKPOINT")

(* ---------- GROUP BY / AVG / joins == single node ---------- *)

(* Run [statements] on both a cluster and a single node, then assert each
   of [qs] answers identically on the single node, through the
   coordinator, and through the coordinator's forced broadcast
   ([~prune:false]): same row set with identical per-row texps,
   identical texp(e), and the same listing when ORDER BY fixes the
   order.  These queries flow through every exchange: slice partials,
   co-partitioned joins, key routing and the whole-table exchanges a
   gathered plan reads.  A [DELETE] among [qs] runs on both
   sides once, routed, and must report the same number of rows. *)
let check_against_single_node ~shards ~statements qs =
  with_cluster shards (fun coord _servers _eps ->
      let single = Server.create ~config:shard_config () in
      Server.start single;
      Fun.protect
        ~finally:(fun () -> Server.stop single)
        (fun () ->
          let c =
            Client.connect ~host:"127.0.0.1" ~port:(Server.port single) ()
          in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              List.iter
                (fun sql ->
                  ignore (exec coord sql);
                  ignore (no_err sql (ok (Client.exec c sql))))
                statements;
              List.iter
                (fun sql ->
                  if String.starts_with ~prefix:"DELETE" sql then
                    Alcotest.(check int)
                      (sql ^ ": same count") (ack_count (exec coord sql))
                      (ack_count (no_err sql (ok (Client.exec c sql))))
                  else begin
                    let sn_rows, sn_texp =
                      rows_of sql (no_err sql (ok (Client.exec c sql)))
                    in
                    List.iter
                      (fun (path, reply) ->
                        let cl_rows, cl_texp = rows_of sql reply in
                        Alcotest.(check bool)
                          (sql ^ path ^ ": same rows and texps") true
                          (sorted cl_rows = sorted sn_rows);
                        if string_contains sql "ORDER BY" then
                          Alcotest.(check bool)
                            (sql ^ path ^ ": same listing order") true
                            (cl_rows = sn_rows);
                        Alcotest.(check bool)
                          (sql ^ path ^ ": same texp(e)") true
                          (Time.equal cl_texp sn_texp))
                      [ ("", exec coord sql);
                        ( " (broadcast)",
                          no_err sql (Coordinator.exec ~prune:false coord sql) )
                      ]
                  end)
                qs)))

let test_distributed_groupby_joins () =
  let statements =
    statements
    @ [ (* a tag equal to a pol degree gives the gathered join hits *)
        "INSERT INTO aux VALUES (12, 30) EXPIRES 22" ]
  in
  (* A join that is not co-partitioned gathers each base table once:
     one contact per shard per table. *)
  with_cluster 3 (fun coord _servers _eps ->
      List.iter (fun sql -> ignore (exec coord sql)) statements;
      let before = Coordinator.traffic coord in
      ignore (exec coord "SELECT * FROM pol JOIN aux ON pol.deg = aux.tag");
      let after = Coordinator.traffic coord in
      Alcotest.(check int) "one contact per shard per gathered table" (3 * 2)
        (after.Coordinator.messages - before.Coordinator.messages));
  check_against_single_node ~shards:3 ~statements
    [ (* grouped and global aggregates from slice partials *)
      "SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg";
      "SELECT deg, SUM(uid) FROM pol GROUP BY deg ORDER BY deg";
      "SELECT deg, MIN(uid) FROM pol GROUP BY deg ORDER BY deg";
      "SELECT deg, MAX(uid) FROM pol WHERE uid > 1 GROUP BY deg ORDER BY deg";
      "SELECT deg, AVG(uid) FROM pol GROUP BY deg ORDER BY deg";
      "SELECT AVG(deg) FROM pol";
      "SELECT AVG(deg) FROM pol AT 25";
      "SELECT deg, COUNT(*) FROM pol GROUP BY deg HAVING COUNT(*) > 1";
      "SELECT deg, COUNT(*) FROM pol GROUP BY deg ORDER BY deg AT 15";
      (* co-partitioned join: the condition equates both hash keys *)
      "SELECT * FROM pol JOIN aux ON pol.uid = aux.uid";
      (* a projected EXCEPT keeping the key scatters *)
      "SELECT uid FROM pol EXCEPT SELECT uid FROM aux";
      (* gathered over whole-table exchanges: a join whose key is not the
         partitioning column, with and without AT, a projected EXCEPT
         dropping the key, aggregate over a join *)
      "SELECT * FROM pol JOIN aux ON pol.deg = aux.tag";
      "SELECT deg FROM pol EXCEPT SELECT tag FROM aux";
      "SELECT COUNT(*) FROM pol JOIN aux ON pol.uid = aux.uid";
      "SELECT * FROM pol JOIN aux ON pol.deg = aux.tag AT 15" ]

(* EXPLAIN through the coordinator prints its own plan first, one
   exchange line per leaf naming the shards it contacts after pruning,
   whether it reads the text's kept COUNT, and the text it ships; the
   shards' own reports follow.  EXPLAIN ANALYZE runs the query and
   labels each exchange line with its fan-out's time and bytes. *)
let test_explain_routes () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      ignore (exec coord "CREATE TABLE u (w, x)");
      for i = 1 to 30 do
        ignore
          (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 99" i (i mod 3)));
        ignore
          (exec coord (Printf.sprintf "INSERT INTO u VALUES (%d, %d) EXPIRES 99" i (i mod 5)))
      done;
      (* The coordinator's section of an EXPLAIN answer. *)
      let own sql =
        match exec coord sql with
        | Wire.Ok_msg text ->
          let header = "--- coordinator ---\n" and shards = "--- shard 0 ---" in
          Alcotest.(check bool) (sql ^ ": coordinator first") true
            (String.starts_with ~prefix:header text);
          Alcotest.(check bool) (sql ^ ": shards follow") true (string_contains text shards);
          let rec cut i =
            if String.sub text i (String.length shards) = shards then i else cut (i + 1)
          in
          let at = String.length header in
          String.sub text at (cut at - at)
        | r -> Alcotest.failf "%s: %s" sql (Wire.render_response r)
      in
      let owner = Wire.shard_owner (Coordinator.shard_map coord) (Value.int 7) in
      List.iter
        (fun (route, sql, expected) ->
          Alcotest.(check string) route expected (own ("EXPLAIN " ^ sql)))
        [ ( "scatter",
            "SELECT * FROM t WHERE k = 7",
            Printf.sprintf
              "exchange [rows, keys {7}] shards {%d}: SELECT * FROM t WHERE k = 7\n" owner );
          ( "partial",
            "SELECT v, COUNT(*) FROM t GROUP BY v",
            "aggregate [group {2}, count, partials -> (2,3)]\n\
            \  exchange [partials] shards {0,1,2}: SELECT v, COUNT(*) FROM t GROUP BY v\n" );
          ( "sketch",
            "SELECT APPROX_COUNT(0.1) FROM t",
            "sketch-count [eps=0.1]\n\
            \  exchange [sketch] shards {0,1,2}: SELECT APPROX_COUNT(0.1) FROM t\n" );
          ( "gather",
            "SELECT * FROM t JOIN u ON t.v = u.x",
            "hash-join [#2 = right #2] verify [#2 = #4]\n\
            \  exchange [rows, table t] shards {0,1,2}: SELECT * FROM t\n\
            \  exchange [rows, table u] shards {0,1,2}: SELECT * FROM u\n" ) ];
      (* A text read once is kept: its next read names versions. *)
      ignore (exec coord "SELECT v, COUNT(*) FROM t GROUP BY v");
      Alcotest.(check string) "kept partial"
        "aggregate [group {2}, count, partials -> (2,3)]\n\
        \  exchange [partials] shards {0,1,2} kept: SELECT v, COUNT(*) FROM t GROUP BY v\n"
        (own "EXPLAIN SELECT v, COUNT(*) FROM t GROUP BY v");
      let analyzed = own "EXPLAIN ANALYZE SELECT * FROM t WHERE k = 7" in
      Alcotest.(check bool) ("analyzed: " ^ analyzed) true
        (String.starts_with
           ~prefix:
             (Printf.sprintf
                "exchange [rows, keys {7}] shards {%d}: SELECT * FROM t WHERE k = 7  (time=" owner)
           analyzed);
      match Scanf.sscanf_opt (List.nth (String.split_on_char '=' analyzed) 3) "%d)" Fun.id with
      | Some bytes -> Alcotest.(check bool) "bytes counted" true (bytes > 0)
      | None -> Alcotest.failf "no bytes in %s" analyzed)

(* Table 1's COUNT form on the wire: a shard answers a COUNT aggregate
   partial request with at most two slices per group — the rows
   expiring at the group's earliest texp on that shard, then the rest
   under its latest — however many distinct texps the group's rows
   carry. *)
let test_count_partial_two_slices () =
  with_cluster 3 (fun coord servers _eps ->
      ignore (exec coord "CREATE TABLE s (uid, grp)");
      for uid = 1 to 64 do
        (* distinct texps, except four rows sharing the earliest *)
        let texp = if uid > 60 then 11 else 10 + uid in
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO s VALUES (%d, %d) EXPIRES %d" uid
                (uid mod 4) texp))
      done;
      let sql = "SELECT grp, COUNT(*) FROM s GROUP BY grp" in
      List.iter
        (fun server ->
          let c =
            Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
          in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let rows, _ =
                rows_of "local rows"
                  (no_err "local rows"
                     (ok (Client.exec c "SELECT uid, grp FROM s")))
              in
              match
                ok
                  (Client.request c
                     (Wire.Shard_exec
                        { sql; ctx = None; want = Wire.Want_agg None }))
              with
              | Wire.Shard_reply { body = Wire.Body_agg { groups; _ }; _ } ->
                Alcotest.(check bool) "the shard holds groups" true (groups <> []);
                List.iter
                  (fun { Expirel_exec.Partial_agg.key; slices } ->
                    let texps =
                      List.filter_map
                        (fun (vs, texp) ->
                          match vs with
                          | [ _; g ] when [ g ] = key -> Some texp
                          | _ -> None)
                        rows
                    in
                    let first = Time.min_list texps in
                    Alcotest.(check bool) "at most two slices" true
                      (List.length slices <= 2);
                    match slices with
                    | s :: _ ->
                      Alcotest.(check bool) "first slice at the earliest texp"
                        true
                        (Time.equal s.Expirel_exec.Partial_agg.s_texp first);
                      Alcotest.(check int) "rows expiring then"
                        (List.length (List.filter (Time.equal first) texps))
                        s.Expirel_exec.Partial_agg.s_rows;
                      Alcotest.(check int) "every row counted"
                        (List.length texps)
                        (List.fold_left
                           (fun n sl -> n + sl.Expirel_exec.Partial_agg.s_rows)
                           0 slices)
                    | [] -> Alcotest.fail "a group without slices")
                  groups
              | r ->
                Alcotest.failf "expected an aggregate partial, got %s"
                  (Wire.render_response r)))
        servers;
      let rows, _ = rows_of sql (exec coord (sql ^ " ORDER BY grp")) in
      Alcotest.(check bool) "16 rows per group" true
        (List.for_all
           (fun (vs, _) ->
             match vs with
             | [ _; Value.Int 16 ] -> true
             | _ -> false)
           rows
        && List.length rows = 4))

(* ---------- fault injection: a dead shard is one typed error ---------- *)

let test_shard_failed () =
  with_cluster 3 (fun coord servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      ignore (exec coord "CREATE TABLE u (k, w)");
      for k = 1 to 12 do
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 100" k k));
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO u VALUES (%d, %d) EXPIRES 100" k k))
      done;
      (* Kill one shard after the inserts refreshed every summary: the
         fan-out still contacts it (its partition is provably
         non-empty), hits the dead socket mid-gather, and must surface
         exactly one typed [Shard_failed] naming the shard — partitions
         are disjoint, so answering from the survivors would silently
         drop rows. *)
      Server.stop (List.nth servers 1);
      let expect_shard_failed sql =
        match Coordinator.exec coord sql with
        | Wire.Err { code = Wire.Shard_failed; message } ->
          Alcotest.(check bool)
            (sql ^ ": error names shard 1") true
            (string_contains message "shard 1")
        | Wire.Err { message; _ } ->
          Alcotest.failf "%s: expected Shard_failed, got error %S" sql message
        | r ->
          Alcotest.failf "%s: expected Shard_failed, got %s" sql
            (Wire.render_response r)
      in
      expect_shard_failed "SELECT * FROM t";
      expect_shard_failed "SELECT k, SUM(v) FROM t GROUP BY k";
      expect_shard_failed "SELECT AVG(v) FROM t";
      expect_shard_failed "SELECT * FROM t JOIN u ON t.k = u.k";
      expect_shard_failed "SELECT * FROM t JOIN u ON t.v = u.w";
      (* A statement-level error is NOT a shard failure: the verdict of
         a live shard passes through with its own code. *)
      match Coordinator.exec coord "SELECT nope FROM t" with
      | Wire.Err { code = Wire.Shard_failed; message } ->
        Alcotest.failf "parse-level error misreported as Shard_failed: %s"
          message
      | Wire.Err _ -> ()
      | r ->
        Alcotest.failf "expected an error, got %s" (Wire.render_response r))

(* A statement error raised inside a shard's partial aggregate (a SUM
   over strings: each group sits on one shard, two strings apiece)
   answers with the single node's text.  The shard keeps its
   connection, so every shard stays reachable and the next GROUP BY
   answers. *)
let test_shard_partial_error () =
  let statements =
    "CREATE TABLE t (g, name)"
    :: List.concat_map
         (fun g ->
           List.map
             (fun suffix ->
               Printf.sprintf "INSERT INTO t VALUES (%d, 'n%d%s') EXPIRES 50" g
                 g suffix)
             [ "a"; "b" ])
         [ 1; 2; 3; 4; 5; 6 ]
  in
  let bad = "SELECT g, SUM(name) FROM t GROUP BY g" in
  let single = Expirel_sqlx.Interp.create () in
  List.iter
    (fun sql -> ignore (ok (Expirel_sqlx.Interp.exec_sql single sql)))
    statements;
  let expected =
    match Expirel_sqlx.Interp.exec_sql single bad with
    | Error message -> message
    | Ok _ -> Alcotest.fail "the single node summed strings"
  in
  with_cluster 2 (fun coord _servers _eps ->
      List.iter (fun sql -> ignore (exec coord sql)) statements;
      (match Coordinator.exec coord bad with
       | Wire.Err { code = Wire.Exec_error; message } ->
         Alcotest.(check string) "the single node's error" expected message
       | r ->
         Alcotest.failf "expected an Exec_error, got %s"
           (Wire.render_response r));
      List.iter
        (fun (id, _, reachable) ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d still reachable" id)
            true reachable)
        (Coordinator.summaries coord);
      let rows, _ =
        rows_of "GROUP BY"
          (exec coord "SELECT g, COUNT(*) FROM t GROUP BY g")
      in
      Alcotest.(check int) "the next GROUP BY answers" 6 (List.length rows))

(* An AT before the clock is refused on every read route, with the
   single node's words: the scatter, the grouped partial, the sketch
   (whose shards ignore AT) and a read whose every shard is pruned
   (which contacts none). *)
let test_past_at_refused () =
  let single = Expirel_sqlx.Interp.create () in
  with_cluster 2 (fun coord _servers _eps ->
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      let refused sql =
        let expected =
          match Expirel_sqlx.Interp.exec_sql single sql with
          | Error message -> message
          | Ok _ -> Alcotest.failf "%s: the single node answered" sql
        in
        match Coordinator.exec coord sql with
        | Wire.Err { code = Wire.Exec_error; message } ->
          Alcotest.(check string) (sql ^ ": the single node's error") expected message
        | r -> Alcotest.failf "%s: expected an Exec_error, got %s" sql (Wire.render_response r)
      in
      exec_both "CREATE TABLE t (k, v)";
      for k = 1 to 8 do
        exec_both (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k (k mod 3) (20 + k))
      done;
      exec_both "ADVANCE TO 10";
      List.iter refused
        [ "SELECT k, v FROM t AT 3";
          "SELECT v, COUNT(*) FROM t GROUP BY v AT 3";
          "SELECT APPROX_COUNT(0.01) FROM t AT 3" ];
      exec_both "ADVANCE TO 200";
      let before = (Coordinator.traffic coord).Coordinator.messages in
      refused "SELECT k, v FROM t AT 150";
      Alcotest.(check int) "refused before any contact" before
        (Coordinator.traffic coord).Coordinator.messages)

(* ---------- qcheck: cluster == single node on random workloads ---------- *)

(* The distributed-execution law: over random shard counts, workloads
   (straddling groups, duplicate tuples, empty partitions, nulls via
   expired rows) and clock advances, every aggregate and join answers
   exactly — same row set, same per-row texps, same texp(e) — as one
   node holding the union of the partitions. *)
let qcheck_cluster_matches_single_node =
  let gen =
    let open QCheck2.Gen in
    let row =
      triple (int_range (-3) 4) (int_range (-3) 4) (int_range 1 24)
    in
    let* shards = int_range 2 3 in
    let* t_rows = list_size (int_range 0 12) row in
    let* u_rows = list_size (int_range 0 6) row in
    let* adv = int_range 0 10 in
    return (shards, t_rows, u_rows, adv)
  in
  Generators.qtest "cluster GROUP BY/AVG/join == single node" ~count:10 gen
    (fun (shards, t_rows, u_rows, adv) ->
      let statements =
        [ "CREATE TABLE t (k, v)"; "CREATE TABLE u (k, w)" ]
        @ List.map
            (fun (k, v, e) ->
              Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k v e)
            t_rows
        @ List.map
            (fun (k, w, e) ->
              Printf.sprintf "INSERT INTO u VALUES (%d, %d) EXPIRES %d" k w e)
            u_rows
        @ (if adv > 0 then [ Printf.sprintf "ADVANCE TO %d" adv ] else [])
      in
      check_against_single_node ~shards ~statements
        [ "SELECT k, COUNT(*) FROM t GROUP BY k";
          "SELECT k, SUM(v) FROM t GROUP BY k";
          "SELECT k, AVG(v) FROM t GROUP BY k";
          "SELECT AVG(v) FROM t";
          "SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > 1";
          "SELECT * FROM t JOIN u ON t.k = u.k";
          "SELECT * FROM t JOIN u ON t.v = u.w";
          "SELECT v FROM t EXCEPT SELECT w FROM u" ];
      true)

(* ---------- global aggregates: combined from shard partials ---------- *)

let test_aggregate_combine () =
  with_cluster 3 (fun coord _servers _eps ->
      let single = Server.create ~config:shard_config () in
      Server.start single;
      Fun.protect
        ~finally:(fun () -> Server.stop single)
        (fun () ->
          let c =
            Client.connect ~host:"127.0.0.1" ~port:(Server.port single) ()
          in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              List.iter
                (fun sql ->
                  ignore (exec coord sql);
                  ignore (no_err sql (ok (Client.exec c sql))))
                statements;
              List.iter
                (fun sql ->
                  let cl_rows, cl_texp = rows_of sql (exec coord sql) in
                  let sn_rows, sn_texp =
                    rows_of sql (no_err sql (ok (Client.exec c sql)))
                  in
                  (* Identical aggregate values; texps are conservative
                     on the cluster side — never later than the single
                     node's exact analysis, which sees the whole
                     partition at once. *)
                  Alcotest.(check bool)
                    (sql ^ ": same values") true
                    (List.map fst cl_rows = List.map fst sn_rows);
                  Alcotest.(check bool)
                    (sql ^ ": row texp sound") true
                    (List.for_all2
                       (fun (_, cl) (_, sn) -> Time.(cl <= sn))
                       cl_rows sn_rows);
                  Alcotest.(check bool)
                    (sql ^ ": texp(e) sound") true
                    Time.(cl_texp <= sn_texp))
                [ "SELECT COUNT(*) FROM pol";
                  "SELECT SUM(deg) FROM pol";
                  "SELECT MIN(deg) FROM pol";
                  "SELECT MAX(deg) FROM pol";
                  "SELECT COUNT(*) FROM pol AT 35";
                  "SELECT MAX(tag) FROM aux AT 30" ])))

(* ---------- approximate aggregates: merged sketch partials ---------- *)

let test_sketch_merge () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      let n = 90 in
      for k = 1 to n do
        (* A third expires at 10, the rest at 100 + k. *)
        let texp = if k mod 3 = 0 then 10 else 100 + k in
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k
                (k * 2) texp))
      done;
      ignore (exec coord "ADVANCE TO 50");
      let live = n - (n / 3) in
      (match rows_of "approx" (exec coord "SELECT APPROX_COUNT(0.1) FROM t") with
       | [ ([ Value.Int est; Value.Float within ], _) ], _ ->
         Alcotest.(check bool) "estimate within the reported bound" true
           (Float.abs (float_of_int (est - live)) <= within);
         Alcotest.(check bool) "bound respects epsilon" true
           (within <= (0.1 *. float_of_int live) +. 1.)
       | rows, _ ->
         Alcotest.failf "unexpected APPROX_COUNT result (%d rows)"
           (List.length rows));
      let sample_rows, _ =
        rows_of "sample" (exec coord "SELECT SAMPLE(7) FROM t")
      in
      Alcotest.(check int) "sample has k rows" 7 (List.length sample_rows);
      List.iter
        (fun (row, texp) ->
          Alcotest.(check bool) "sampled row is live" true
            Time.(texp > Time.of_int 50);
          match row with
          | [ Value.Int k; Value.Int v ] ->
            Alcotest.(check bool) "sampled row was inserted" true
              (v = 2 * k && k mod 3 <> 0)
          | _ -> Alcotest.fail "unexpected sampled row shape")
        sample_rows;
      (* AT is applied at the coordinator over the same partials: far
         enough out, everything is dead. *)
      (match
         rows_of "approx at" (exec coord "SELECT APPROX_COUNT(0.1) FROM t AT 500")
       with
       | [ ([ Value.Int est; _ ], _) ], _ ->
         Alcotest.(check int) "nothing live at 500" 0 est
       | rows, _ ->
         Alcotest.failf "unexpected APPROX_COUNT AT result (%d rows)"
           (List.length rows)))

(* A SAMPLE whose k no memory could hold merges its shard partials in
   time and space of the entries they carry, and answers the single
   node's rows: every live one. *)
let test_huge_sample () =
  with_cluster 2 (fun coord _servers _eps ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      exec_both "CREATE TABLE t (k, v)";
      for k = 1 to 12 do
        exec_both (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k (k * 2) (5 * k))
      done;
      exec_both "ADVANCE TO 20";
      let q = "SELECT SAMPLE(1099511627776) FROM t" in
      let rows, texp_e = rows_of q (exec coord q) in
      match ok (Expirel_sqlx.Interp.exec_sql single q) with
      | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
        Alcotest.(check int) "every live row" 8 (List.length rows);
        Alcotest.(check bool) "the single node's rows" true
          (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
        Alcotest.(check bool) "the single node's texp(e)" true (Time.equal texp_e sn_texp)
      | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m)

(* ---------- the cluster-wide expiration forecast ---------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let report_live (r : Obs.Horizon.report) =
  List.fold_left
    (fun acc tb -> acc + Obs.Horizon.live tb)
    0 r.Obs.Horizon.tables

(* Per-shard horizon partials merge bucket-wise into exactly the
   profile of one node holding every row — hash partitions are
   disjoint, so the addition is exact, not approximate. *)
let test_horizon_cluster () =
  with_cluster 3 (fun coord _servers _endpoints ->
      List.iter (fun sql -> ignore (exec coord sql)) statements;
      let union = Expirel_sqlx.Interp.create () in
      List.iter
        (fun sql ->
          List.iter
            (function
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s: %s" sql e)
            (Expirel_sqlx.Interp.exec_script union (sql ^ ";")))
        statements;
      let merged = ok (Coordinator.horizon coord) in
      let per_shard = merged.Obs.Horizon.shards in
      let single = Expirel_sqlx.Interp.horizon union in
      Alcotest.(check bool) "merged tables equal the single-node profile"
        true
        (merged.Obs.Horizon.tables = single.Obs.Horizon.tables);
      Alcotest.(check int) "now tracks the cluster clock"
        single.Obs.Horizon.now merged.Obs.Horizon.now;
      Alcotest.(check int) "three shards in the breakdown" 3
        (List.length per_shard);
      Alcotest.(check int) "per-shard live rows sum to the total"
        (report_live merged)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 per_shard);
      (* per-table restriction, and unknown tables answer Error *)
      let only_pol = ok (Coordinator.horizon ~table:"pol" coord) in
      Alcotest.(check (list string)) "restricted to pol" [ "pol" ]
        (List.map
           (fun tb -> tb.Obs.Horizon.name)
           only_pol.Obs.Horizon.tables);
      (match Coordinator.horizon ~table:"ghost" coord with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "unknown table accepted");
      (* the statement path renders the same forecast with the
         per-shard breakdown *)
      (match exec coord "SHOW HORIZON" with
       | Wire.Ok_msg m ->
         List.iter
           (fun sub ->
             Alcotest.(check bool) ("SHOW HORIZON mentions " ^ sub) true
               (contains ~sub m))
           [ "horizon now=9"; "shard 0: live="; "shard 2: live=";
             "table aux:"; "table pol:" ]
       | r -> Alcotest.fail ("SHOW HORIZON: " ^ Wire.render_response r));
      (* both Prometheus surfaces pass the shared exposition lint *)
      let page =
        Obs.Prometheus.render (Obs.Horizon.metrics (ok (Coordinator.horizon coord)))
      in
      Test_obs.check_exposition ~what:"merged horizon page" page;
      Alcotest.(check bool) "page exports the merged histogram" true
        (contains ~sub:"# TYPE expirel_horizon_rows histogram" page);
      let metrics = Coordinator.metrics coord in
      Test_obs.check_exposition ~what:"coordinator metrics page" metrics;
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("coordinator exposes " ^ sub) true
            (contains ~sub metrics))
        [ "expirel_cluster_live_rows";
          "expirel_cluster_horizon_expiring_soon";
          "expirel_cluster_horizon_fanout_events";
          "expirel_build_info{version=\"" ^ Metrics.build_version ^ "\"";
          "expirel_uptime_seconds" ];
      (* a health rule over an unregistered name is skipped without a
         word: every metric a default rule reads is declared here *)
      List.iter
        (fun (rule : Obs.Health.rule) ->
          List.iter
            (fun name ->
              Alcotest.(check bool) (rule.name ^ " reads " ^ name) true
                (contains ~sub:("# TYPE " ^ name ^ " ") metrics))
            (Test_obs.rule_metrics rule))
        (Coordinator.default_health_rules ~shards:3))

(* The predictive storm rule fires on the coordinator *before* any
   clock movement — the merged forecast sees the drop coming — and
   clears once the storm has passed. *)
let test_cluster_storm_rule () =
  with_cluster 2 (fun coord _servers _endpoints ->
      ignore (exec coord "CREATE TABLE s (k, v)");
      for i = 1 to 10 do
        ignore
          (exec coord (Printf.sprintf "INSERT INTO s VALUES (%d, 0) EXPIRES 5" i))
      done;
      (match Coordinator.health coord with
       | { level = Critical; firing } ->
         Alcotest.(check bool) "cluster_expiration_storm names itself" true
           (List.exists
              (fun (f : Obs.Health.firing) ->
                f.rule_name = "cluster_expiration_storm")
              firing)
       | _ -> Alcotest.fail "storm not predicted before the drop");
      ignore (exec coord "ADVANCE TO 6");
      match Coordinator.health coord with
      | { level = Ok; _ } -> ()
      | _ -> Alcotest.fail "health still firing after the storm passed")

(* ---------- key routing: a pinned key asks only its owners ---------- *)

let key_on coord shard_id =
  let map = Coordinator.shard_map coord in
  let rec hunt k =
    if Wire.shard_owner map (Value.int k) = shard_id then k else hunt (k + 1)
  in
  hunt 1

let messages_for ?(prune = true) coord sql =
  let before = (Coordinator.traffic coord).Coordinator.messages in
  ignore (no_err sql (Coordinator.exec ~prune coord sql));
  (Coordinator.traffic coord).Coordinator.messages - before

(* Broadcast acknowledgements speak for the cluster: a DELETE or VACUUM
   reports the sum of the shards' counts, not the first shard's. *)
let test_broadcast_counts () =
  with_cluster
    ~config:{ shard_config with Server.policy = Expirel_storage.Database.Lazy }
    3
    (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      for k = 1 to 9 do
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO t VALUES (%d, 1) EXPIRES %d" k
                (if k <= 6 then 100 else 5)))
      done;
      ignore (exec coord "ADVANCE TO 10");
      (* Lazy removal: the three rows that expired at 5 wait for VACUUM,
         spread over the shards. *)
      (match exec coord "VACUUM" with
       | Wire.Ok_msg m ->
         Alcotest.(check string) "vacuum sums the shards"
           "3 tuple(s) reclaimed (on 3 shard(s))" m
       | r -> Alcotest.failf "VACUUM: %s" (Wire.render_response r));
      match exec coord "DELETE FROM t WHERE v = 1" with
      | Wire.Ok_msg m ->
        Alcotest.(check string) "delete sums the shards"
          "6 tuple(s) deleted (on 3 shard(s))" m
      | r -> Alcotest.failf "DELETE: %s" (Wire.render_response r))

(* The traffic contract of routing: a point query is one message, an OR
   of two keys on different owners two, an unpinned query (or a key
   whose Int/Float equals hash apart) every shard — and the forced
   broadcast every shard whatever the WHERE says. *)
let test_routed_traffic () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      for k = 1 to 30 do
        ignore
          (exec coord
             (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 100" k
                (k mod 3)))
      done;
      ignore (exec coord "INSERT INTO t VALUES (2.5, 7) EXPIRES 100");
      let a = key_on coord 0 and b = key_on coord 1 in
      let point = Printf.sprintf "SELECT * FROM t WHERE k = %d" a in
      Alcotest.(check bool) "routed counter starts at 0" true
        (string_contains (Coordinator.metrics coord)
           "expirel_cluster_routed_total 0");
      Alcotest.(check int) "point query: 1 message" 1
        (messages_for coord point);
      Alcotest.(check bool) "routed counter counts the skipped shards" true
        (string_contains (Coordinator.metrics coord)
           "expirel_cluster_routed_total 2");
      Alcotest.(check int) "constant on the left: 1 message" 1
        (messages_for coord
           (Printf.sprintf "SELECT v FROM t WHERE v > 0 AND %d = k" a));
      Alcotest.(check int) "2-key OR on different owners: 2 messages" 2
        (messages_for coord
           (Printf.sprintf "SELECT k FROM t WHERE k = %d OR k = %d" a b));
      Alcotest.(check int) "routed UNION: 2 messages" 2
        (messages_for coord
           (Printf.sprintf
              "SELECT * FROM t WHERE k = %d UNION SELECT * FROM t WHERE k = %d"
              a b));
      Alcotest.(check int) "pinned projected EXCEPT: 1 message" 1
        (messages_for coord
           (Printf.sprintf
              "SELECT k, v FROM t WHERE k = %d EXCEPT SELECT k, v FROM t \
               WHERE v = 1"
              a));
      Alcotest.(check int) "pinned APPROX_COUNT: 1 message" 1
        (messages_for coord
           (Printf.sprintf "SELECT APPROX_COUNT(0.01) FROM t WHERE k = %d" a));
      Alcotest.(check int) "routed GROUP BY: 1 message" 1
        (messages_for coord
           (Printf.sprintf "SELECT k, COUNT(*) FROM t WHERE k = %d GROUP BY k"
              a));
      Alcotest.(check int) "unpinned: 3 messages" 3
        (messages_for coord "SELECT * FROM t WHERE v = 1");
      Alcotest.(check int) "OR with an unpinned side: 3 messages" 3
        (messages_for coord
           (Printf.sprintf "SELECT * FROM t WHERE k = %d OR v = 1" a));
      Alcotest.(check int) "forced broadcast: 3 messages" 3
        (messages_for ~prune:false coord point);
      (* Floats: an integral one routes with its Int and finds it; a
         fractional one routes by its own hash; past 2^53 Ints and
         Floats equate across hashes, so the coordinator broadcasts. *)
      Alcotest.(check int) "integral Float: 1 message" 1
        (messages_for coord (Printf.sprintf "SELECT * FROM t WHERE k = %d.0" a));
      (match exec coord (Printf.sprintf "SELECT * FROM t WHERE k = %d.0" a) with
       | Wire.Rows { rows = [ (Value.Int k :: _, _) ]; _ } when k = a -> ()
       | r -> Alcotest.failf "k = %d.0: %s" a (Wire.render_response r));
      Alcotest.(check int) "fractional Float: 1 message" 1
        (messages_for coord "SELECT * FROM t WHERE k = 2.5");
      Alcotest.(check int) "Int beyond 2^53: 3 messages" 3
        (messages_for coord "SELECT * FROM t WHERE k = 9007199254740993");
      (* A pinned DELETE reaches the owner alone and says so. *)
      let before = (Coordinator.traffic coord).Coordinator.messages in
      (match exec coord (Printf.sprintf "DELETE FROM t WHERE k = %d" b) with
       | Wire.Ok_msg m ->
         Alcotest.(check string) "point DELETE ack"
           "1 tuple(s) deleted (on 1 shard(s))" m
       | r -> Alcotest.failf "DELETE: %s" (Wire.render_response r));
      Alcotest.(check int) "point DELETE: 1 message" 1
        ((Coordinator.traffic coord).Coordinator.messages - before);
      Alcotest.(check int) "unpinned DELETE: 3 messages" 3
        (messages_for coord "DELETE FROM t WHERE v = 9"))

(* The routing law: over random tables whose keys mix Ints, integral
   and fractional Floats and strings, some rows expired, every pinned,
   OR-of-points, AND-with-another-column and unpinned query answers
   through the routed coordinator exactly as through its forced
   broadcast and as one node holding every row; random DELETEs routed
   the same way remove exactly the single node's rows.  The set
   operations cover EXCEPT/INTERSECT over projections that keep the key
   (scattered) and drop it (gathered); APPROX_COUNT routes by its
   child's keys, and with AT past every candidate's rows it answers
   without a contact. *)
let qcheck_routed_matches_broadcast =
  let gen =
    let open QCheck2.Gen in
    let key =
      oneof
        [ map (Printf.sprintf "%d") (int_range (-3) 4);
          map (Printf.sprintf "%d.0") (int_range (-3) 4);
          oneofl [ "0.5"; "'a'"; "'b'" ] ]
    in
    let row = triple key (int_range 0 3) (int_range 1 24) in
    let pred =
      let* c1 = key and* c2 = key and* w = int_range 0 3 in
      oneofl
        [ Printf.sprintf "k = %s" c1;
          Printf.sprintf "k = %s OR k = %s" c1 c2;
          Printf.sprintf "k = %s AND v > %d" c1 w;
          Printf.sprintf "v = %d AND %s = k" w c1;
          Printf.sprintf "v = %d" w;
          Printf.sprintf "k = %s OR v = %d" c1 w ]
    in
    let* shards = int_range 2 3 in
    let* rows = list_size (int_range 0 16) row in
    let* adv = int_range 0 10 in
    let* preds = list_size (return 4) pred in
    let* deletes = list_size (int_range 1 2) pred in
    return (shards, rows, adv, preds, deletes)
  in
  Generators.qtest "routed == broadcast == single node" ~count:12 gen
    (fun (shards, rows, adv, preds, deletes) ->
      let statements =
        [ "CREATE TABLE t (k, v)" ]
        @ List.map
            (fun (k, v, e) ->
              Printf.sprintf "INSERT INTO t VALUES (%s, %d) EXPIRES %d" k v e)
            rows
        @ if adv > 0 then [ Printf.sprintf "ADVANCE TO %d" adv ] else []
      in
      let queries =
        List.concat_map
          (fun p ->
            [ "SELECT * FROM t WHERE " ^ p;
              "SELECT v FROM t WHERE " ^ p;
              "SELECT k, COUNT(*) FROM t WHERE " ^ p ^ " GROUP BY k";
              Printf.sprintf "SELECT * FROM t WHERE %s AT %d" p (adv + 6) ])
          preds
        @ (match preds with
           | p :: q :: _ ->
             [ Printf.sprintf
                 "SELECT * FROM t WHERE %s UNION SELECT * FROM t WHERE %s" p q;
               Printf.sprintf
                 "SELECT * FROM t WHERE %s EXCEPT SELECT * FROM t WHERE %s" p q;
               Printf.sprintf
                 "SELECT k, v FROM t WHERE %s EXCEPT SELECT k, v FROM t WHERE %s"
                 p q;
               Printf.sprintf
                 "SELECT k, v FROM t WHERE %s INTERSECT SELECT k, v FROM t \
                  WHERE %s"
                 p q;
               Printf.sprintf
                 "SELECT v FROM t WHERE %s EXCEPT SELECT v FROM t WHERE %s" p q;
               "SELECT APPROX_COUNT(0.01) FROM t WHERE " ^ p;
               Printf.sprintf "SELECT APPROX_COUNT(0.01) FROM t WHERE %s AT %d"
                 p (adv + 6);
               Printf.sprintf "SELECT * FROM t WHERE %s LIMIT 2" p ]
           | _ -> [])
      in
      check_against_single_node ~shards ~statements
        (queries
        @ List.map (fun p -> "DELETE FROM t WHERE " ^ p) deletes
        @ queries);
      true)

(* Point reads stay exact while rows move: a rebalance runs alone, so
   a read issued during it waits and then routes by the new map.  Every
   read, on every key, through a grow and a shrink, finds its row. *)
let test_routed_reads_across_rebalance () =
  with_cluster 3 (fun coord _servers _eps ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      let keys = List.init 60 (fun i -> i + 1) in
      List.iter
        (fun k ->
          ignore
            (exec coord
               (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 1000" k
                  (k * 7))))
        keys;
      let extra = Server.create ~config:shard_config () in
      Server.start extra;
      Fun.protect
        ~finally:(fun () -> Server.stop extra)
        (fun () ->
          let stop = Atomic.make false in
          let reads = Atomic.make 0 in
          let misses = Atomic.make [] in
          let reader offset () =
            while not (Atomic.get stop) do
              List.iter
                (fun k ->
                  let k = ((k + offset) mod 60) + 1 in
                  match
                    Coordinator.exec coord
                      (Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k)
                  with
                  | Wire.Rows { rows = [ ([ Value.Int k'; Value.Int v ], _) ]; _ }
                    when k' = k && v = k * 7 ->
                    Atomic.incr reads
                  | r ->
                    let miss = (k, Wire.render_response r) in
                    let rec push () =
                      let old = Atomic.get misses in
                      if not (Atomic.compare_and_set misses old (miss :: old))
                      then push ()
                    in
                    push ())
                keys
            done
          in
          let readers = List.init 2 (fun i -> Thread.create (reader (i * 30)) ()) in
          let moved =
            Fun.protect
              ~finally:(fun () ->
                Atomic.set stop true;
                List.iter Thread.join readers)
              (fun () ->
                let grow =
                  Coordinator.add_shard coord
                    { Coordinator.host = "127.0.0.1"; port = Server.port extra }
                in
                let shrink = Coordinator.remove_shard coord 0 in
                (grow, shrink))
          in
          (match moved with
           | Ok _, Ok _ -> ()
           | Error e, _ | _, Error e -> Alcotest.fail ("rebalance: " ^ e));
          (match Atomic.get misses with
           | [] -> ()
           | (k, reply) :: _ as all ->
             Alcotest.failf "%d point read(s) missed, e.g. k = %d: %s"
               (List.length all) k reply);
          Alcotest.(check bool) "readers ran" true (Atomic.get reads > 0);
          (* Once the moves are over, a point read is one message again. *)
          Alcotest.(check int) "point read after the moves: 1 message" 1
            (messages_for coord "SELECT * FROM t WHERE k = 1")))

(* ---------- the pipelined fan-out under failure and concurrency ---------- *)

(* A frame relay in front of a shard's port.  [arm] sets what happens
   to the next request it reads: [`Hang_up] takes it off the wire and
   drops the connection unanswered, as a shard dying after the
   coordinator posted to it and before it collected; [`Hang_up_on p]
   does that to the first request [p] accepts, forwarding the ones
   before it; [`Delay s] forwards it [s] seconds late. *)
let with_relay ~port f =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 8;
  let relay_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let armed = Atomic.make None and stop = Atomic.make false in
  let sockets = ref [] and pumps = ref [] in
  let hang_up fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> () in
  let pump from into ~requests () =
    let reader = Frame.reader from in
    (try
       while true do
         let payload, _ = Frame.recv reader in
         (match if requests then Atomic.exchange armed None else None with
          | Some `Hang_up -> raise Exit
          | Some (`Hang_up_on matches) ->
            (match Wire.decode_request payload with
             | Ok request when matches request -> raise Exit
             | Ok _ | Error _ ->
               ignore (Atomic.compare_and_set armed None (Some (`Hang_up_on matches))))
          | Some (`Delay s) -> Thread.delay s
          | None -> ());
         ignore (Frame.send into payload)
       done
     with Exit | Frame.Closed | Frame.Timeout | Frame.Oversized _ | Unix.Unix_error _ -> ());
    hang_up from;
    hang_up into
  in
  let accept_loop () =
    while not (Atomic.get stop) do
      match Unix.select [ listener ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ ->
        let client, _ = Unix.accept listener in
        let upstream = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect upstream (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        sockets := client :: upstream :: !sockets;
        pumps :=
          Thread.create (pump client upstream ~requests:true) ()
          :: Thread.create (pump upstream client ~requests:false) ()
          :: !pumps
    done
  in
  let acceptor = Thread.create accept_loop () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      List.iter hang_up !sockets;
      List.iter Thread.join !pumps;
      List.iter Unix.close (listener :: !sockets))
    (fun () -> f relay_port (fun mode -> Atomic.set armed (Some mode)))

(* Relays in front of every endpoint: [f] gets the relayed endpoints
   and each relay's [arm], in endpoint order. *)
let rec with_relays endpoints f =
  match endpoints with
  | [] -> f [] []
  | (e : Coordinator.endpoint) :: rest ->
    with_relay ~port:e.Coordinator.port (fun port arm ->
        with_relays rest (fun relayed arms ->
            f ({ e with Coordinator.port } :: relayed) (arm :: arms)))

(* Shard 1 dies between the post and the collect of a scatter, while
   the other two answer late: the read answers one [Shard_failed]
   naming it, and the survivors' replies were still collected after
   that failure — a routed read on each then gets its own row, not the
   scatter's stale reply. *)
let test_killed_mid_fanout () =
  with_shards 3 (fun _servers endpoints ->
      with_relays endpoints @@ fun endpoints arms ->
      let coord = Coordinator.create ~heartbeat_interval:0. ~shards:endpoints () in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      let keys = List.map (key_on coord) [ 0; 1; 2 ] in
      List.iter
        (fun k ->
          ignore
            (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 100" k (10 * k))))
        keys;
      List.iteri (fun id arm -> arm (if id = 1 then `Hang_up else `Delay 0.05)) arms;
      (match Coordinator.exec coord "SELECT k, v FROM t" with
       | Wire.Err { code = Wire.Shard_failed; message } ->
         Alcotest.(check bool) ("names shard 1: " ^ message) true
           (string_contains message "shard 1")
       | r -> Alcotest.failf "expected Shard_failed, got %s" (Wire.render_response r));
      List.iter
        (fun id ->
          let k = List.nth keys id in
          let sql = Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k in
          let rows, _ = rows_of sql (exec coord sql) in
          Alcotest.(check bool)
            (Printf.sprintf "shard %d answers its own key" id)
            true
            (rows = [ ([ Value.int k; Value.int (10 * k) ], Time.of_int 100) ]))
        [ 0; 2 ])

(* A TICK with one shard dead reaches every live shard: the answer
   names the dead one, and the live shards' clocks moved. *)
let test_broadcast_past_dead_shard () =
  with_cluster 3 (fun coord servers _eps ->
      ignore (exec coord "TICK 2");
      Server.stop (List.nth servers 1);
      (match Coordinator.exec coord "TICK 5" with
       | Wire.Err { message; _ } ->
         Alcotest.(check bool) ("names shard 1: " ^ message) true
           (string_contains message "shard 1");
         Alcotest.(check bool) ("names no live shard: " ^ message) false
           (string_contains message "shard 0" || string_contains message "shard 2")
       | r -> Alcotest.failf "expected an error, got %s" (Wire.render_response r));
      List.iter
        (fun id ->
          let c =
            Client.connect ~host:"127.0.0.1" ~port:(Server.port (List.nth servers id)) ()
          in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          match ok (Client.exec c "SHOW NOW") with
          | Wire.Ok_msg now ->
            Alcotest.(check string) (Printf.sprintf "shard %d clock" id) "7" now
          | r -> Alcotest.failf "SHOW NOW: %s" (Wire.render_response r))
        [ 0; 2 ])

(* Runs [f] on a thread and fails unless it returns within [secs]: a
   leaked slot lock shows as a hang, not as a wrong answer. *)
let within secs what f =
  let result = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error (Printexc.to_string e))))
      ()
  in
  let deadline = Unix.gettimeofday () +. secs in
  while Option.is_none (Atomic.get result) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get result with
  | None -> Alcotest.failf "%s: no answer within %.0f s" what secs
  | Some (Error e) ->
    Thread.join th;
    Alcotest.failf "%s raised %s" what e
  | Some (Ok v) ->
    Thread.join th;
    v

(* One shard's host does not resolve (a NUL in the name is refused
   before any lookup).  That shard answers as unavailable on every
   contact, and nothing it touched stays locked: a scatter names it,
   then a routed read and a heartbeat still finish, twice over. *)
let test_unresolvable_shard () =
  with_shards 2 (fun _servers endpoints ->
      let bad = { Coordinator.host = "no\000such-host"; port = 1 } in
      let coord =
        within 10. "create" (fun () ->
            Coordinator.create ~heartbeat_interval:0. ~shards:(endpoints @ [ bad ]) ())
      in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
      let k = key_on coord 0 in
      let names_shard_2 sql = function
        | Wire.Err { message; _ } ->
          Alcotest.(check bool) (sql ^ " names shard 2: " ^ message) true
            (string_contains message "shard 2")
        | r -> Alcotest.failf "%s: expected an error, got %s" sql (Wire.render_response r)
      in
      names_shard_2 "CREATE TABLE" (within 10. "CREATE TABLE" (fun () ->
          Coordinator.exec coord "CREATE TABLE t (k, v)"));
      ignore
        (within 10. "INSERT" (fun () ->
             exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, 1) EXPIRES 100" k)));
      for _ = 1 to 2 do
        names_shard_2 "scatter" (within 10. "scatter" (fun () ->
            Coordinator.exec coord "SELECT k, v FROM t"));
        let sql = Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k in
        let rows, _ = rows_of sql (within 10. "routed read" (fun () -> exec coord sql)) in
        Alcotest.(check bool) "the routed read answers its key" true
          (rows = [ ([ Value.int k; Value.int 1 ], Time.of_int 100) ]);
        within 10. "heartbeat" (fun () -> Coordinator.heartbeat_now coord)
      done)

(* A caller waiting for a busy slot holds no other.  Shard 1 answers
   1.5 s late and a routed read holds its slot meanwhile; a scatter
   started then must wait for slot 1, but a routed read on shard 0
   issued after the scatter still answers at once, not after shard 1. *)
let test_slow_shard_no_head_of_line () =
  with_shards 3 (fun _servers endpoints ->
      with_relays endpoints @@ fun endpoints arms ->
      let coord = Coordinator.create ~heartbeat_interval:0. ~shards:endpoints () in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
      ignore (exec coord "CREATE TABLE t (k, v)");
      let keys = List.map (key_on coord) [ 0; 1; 2 ] in
      List.iter
        (fun k -> ignore (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 100" k k)))
        keys;
      let point k = Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k in
      (List.nth arms 1) (`Delay 1.5);
      let slow = Thread.create (fun () -> ignore (Coordinator.exec coord (point (List.nth keys 1)))) () in
      Thread.delay 0.2;
      let scatter_rows = Atomic.make [] in
      let scatter =
        Thread.create
          (fun () ->
            match Coordinator.exec coord "SELECT k, v FROM t" with
            | Wire.Rows { rows; _ } -> Atomic.set scatter_rows rows
            | _ -> ())
          ()
      in
      Thread.delay 0.2;
      let t0 = Unix.gettimeofday () in
      let k0 = List.hd keys in
      let rows, _ = rows_of (point k0) (exec coord (point k0)) in
      let waited = Unix.gettimeofday () -. t0 in
      Thread.join slow;
      Thread.join scatter;
      Alcotest.(check bool) "shard 0 answers its own key" true
        (rows = [ ([ Value.int k0; Value.int k0 ], Time.of_int 100) ]);
      Alcotest.(check bool)
        (Printf.sprintf "shard 0 answered in %.3f s, not after shard 1" waited)
        true (waited < 0.6);
      Alcotest.(check int) "the scatter still gathered every shard" 3
        (List.length (Atomic.get scatter_rows)))

(* Two threads mix scatters, routed point reads and TICKs through one
   coordinator.  Every reply is well formed (a point read answers only
   its own key: a reply collected on the wrong request would not), the
   run ends within its deadline (no caller blocks on a slot while it
   holds another, so callers never wait in a cycle), and the cluster
   ends equal to one node that saw the same writes and the same total
   of TICKs. *)
let test_concurrent_fanouts () =
  with_cluster 3 (fun coord _servers _eps ->
      let single = Expirel_sqlx.Interp.create () in
      let exec_both sql =
        ignore (exec coord sql);
        ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
      in
      exec_both "CREATE TABLE t (k, v)";
      for k = 1 to 60 do
        exec_both (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k k (k + 10))
      done;
      let rounds = 250 and tick_every = 10 in
      let failures = Atomic.make [] and finished = Atomic.make 0 in
      let fail what = Atomic.set failures (what :: Atomic.get failures) in
      let lane seed () =
        (try
           for i = 1 to rounds do
             (match Coordinator.exec coord "SELECT k, v FROM t" with
              | Wire.Rows _ -> ()
              | r -> fail ("scatter: " ^ Wire.render_response r));
             let k = 1 + ((seed + (7 * i)) mod 60) in
             (match Coordinator.exec coord (Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k) with
              | Wire.Rows { rows; _ } ->
                if not (List.for_all (fun (vs, _) -> vs = [ Value.int k; Value.int k ]) rows)
                then fail (Printf.sprintf "point read of %d answered another key" k)
              | r -> fail ("point read: " ^ Wire.render_response r));
             if i mod tick_every = 0 then
               match Coordinator.exec coord "TICK 1" with
               | Wire.Ok_msg _ -> ()
               | r -> fail ("TICK: " ^ Wire.render_response r)
           done
         with e -> fail (Printexc.to_string e));
        Atomic.incr finished
      in
      let lanes = List.map (fun seed -> Thread.create (lane seed) ()) [ 0; 31 ] in
      let deadline = Unix.gettimeofday () +. 60. in
      while Atomic.get finished < 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      if Atomic.get finished < 2 then Alcotest.fail "the lanes missed their deadline";
      List.iter Thread.join lanes;
      (match Atomic.get failures with
       | [] -> ()
       | first :: _ as all -> Alcotest.failf "%d failure(s), e.g. %s" (List.length all) first);
      ignore (ok (Expirel_sqlx.Interp.exec_sql single (Printf.sprintf "TICK %d" (2 * rounds / tick_every))));
      let q = "SELECT k, v FROM t" in
      let rows, texp_e = rows_of q (exec coord q) in
      match ok (Expirel_sqlx.Interp.exec_sql single q) with
      | Expirel_sqlx.Interp.Rows { listing; texp_e = sn_texp; _ } ->
        Alcotest.(check bool) "the single node's rows and texps" true
          (sorted rows = sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)));
        Alcotest.(check bool) "the single node's texp(e)" true (Time.equal texp_e sn_texp)
      | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m)

(* ---------- a rebalance runs alone ---------- *)

(* Two shards behind a coordinator, and a third, behind a relay, to
   join: [f coord ~joining ~direct ~arm] gets the relayed endpoint to
   pass to [add_shard], the joining shard's own port (asked directly,
   past the relay and the coordinator) and the relay's [arm]. *)
let with_joining f =
  with_shards 3 (fun _servers endpoints ->
      match endpoints with
      | [ a; b; c ] ->
        with_relay ~port:c.Coordinator.port @@ fun relay_port arm ->
        let coord = Coordinator.create ~heartbeat_interval:0. ~shards:[ a; b ] () in
        Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
        f coord ~joining:{ c with Coordinator.port = relay_port } ~direct:c.Coordinator.port ~arm
      | _ -> assert false)

(* [move ()] on its own thread, with every request the relay reads held
   20 ms (its [`Delay] re-armed each millisecond) to widen the move's
   window, while [during ()] repeats on this thread — at least once —
   until the move has returned.  Fails unless the move succeeded. *)
let while_moving ~arm move during =
  let result = Atomic.make None in
  let mover =
    Thread.create
      (fun () ->
        Atomic.set result (Some (try move () with e -> Error (Printexc.to_string e))))
      ()
  in
  let armer =
    Thread.create
      (fun () ->
        while Option.is_none (Atomic.get result) do
          arm (`Delay 0.02);
          Thread.delay 0.001
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join mover;
      Thread.join armer)
    (fun () ->
      let rec go () =
        during ();
        if Option.is_none (Atomic.get result) then go ()
      in
      go ());
  match Option.get (Atomic.get result) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("rebalance: " ^ e)

(* Blocks until the shard on [port], asked directly, holds a row of
   [t]: a move into it is then past its first ingest. *)
let await_ingest port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  let rec poll () =
    match Client.exec c "SELECT k FROM t LIMIT 1" with
    | Ok (Wire.Rows { rows = _ :: _; _ }) -> ()
    | _ when Unix.gettimeofday () > deadline -> Alcotest.fail "no row reached the joining shard"
    | _ ->
      Thread.delay 0.001;
      poll ()
  in
  poll ()

let insert_kv coord k =
  Coordinator.exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k (k mod 7) (100 + (k mod 13)))

(* Inserts keep coming while a shard joins and while one leaves: every
   acknowledged key is found exactly once afterwards, by a point read
   and by a full scan.  A move purges a source last, so an insert that
   reached a source between its extract and its purge would be gone,
   and one that reached an old owner after its purge would sit where
   no point read looks. *)
let test_inserts_survive_rebalance () =
  with_joining @@ fun coord ~joining ~direct:_ ~arm ->
  ignore (exec coord "CREATE TABLE t (k, v)");
  let acked = ref [] and next = ref 0 in
  let insert () =
    incr next;
    match insert_kv coord !next with
    | Wire.Ok_msg _ -> acked := !next :: !acked
    | r -> Alcotest.failf "INSERT %d: %s" !next (Wire.render_response r)
  in
  for _ = 1 to 300 do insert () done;
  let check what =
    let scan = List.map (fun (vs, _) -> vs) (fst (rows_of "scan" (exec coord "SELECT k FROM t"))) in
    let lost =
      List.filter
        (fun k ->
          let sql = Printf.sprintf "SELECT k FROM t WHERE k = %d" k in
          fst (rows_of sql (exec coord sql)) <> [ ([ Value.int k ], Time.of_int (100 + (k mod 13))) ]
          || List.length (List.filter (( = ) [ Value.int k ]) scan) <> 1)
        !acked
    in
    Alcotest.(check (list int)) (what ^ ": acknowledged keys not found exactly once") [] lost;
    Alcotest.(check int) (what ^ ": the scan holds only acknowledged keys")
      (List.length !acked) (List.length scan)
  in
  while_moving ~arm (fun () -> Coordinator.add_shard coord joining) insert;
  check "after ADD SHARD";
  while_moving ~arm (fun () -> Coordinator.remove_shard coord 0) insert;
  check "after REMOVE SHARD"

(* A grouped COUNT (kept, read twice before the move) and an unpinned
   scatter, read over and over while a shard joins and while one
   leaves, each equal to one node's answer over the same rows: rows,
   per-row texps and texp(e). *)
let test_reads_during_rebalance () =
  with_joining @@ fun coord ~joining ~direct:_ ~arm ->
  let single = Expirel_sqlx.Interp.create () in
  let exec_both sql =
    ignore (exec coord sql);
    ignore (ok (Expirel_sqlx.Interp.exec_sql single sql))
  in
  exec_both "CREATE TABLE t (k, v)";
  for k = 1 to 300 do
    exec_both (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k (k mod 7) (100 + (k mod 13)))
  done;
  let single_rows sql =
    match ok (Expirel_sqlx.Interp.exec_sql single sql) with
    | Expirel_sqlx.Interp.Rows { listing; texp_e; _ } ->
      (sorted (List.map (fun (tp, e) -> (Tuple.to_list tp, e)) (Lazy.force listing)), texp_e)
    | Expirel_sqlx.Interp.Msg m -> Alcotest.fail m
  in
  let queries = [ "SELECT v, COUNT(*) FROM t GROUP BY v"; "SELECT k, v FROM t" ] in
  let expected = List.map single_rows queries in
  let wrong = ref [] and reads = ref 0 in
  let read_all () =
    List.iter2
      (fun sql (rows, texp_e) ->
        incr reads;
        match Coordinator.exec coord sql with
        | Wire.Rows { rows = got; texp_e = got_e; _ }
          when sorted got = rows && Time.equal got_e texp_e -> ()
        | Wire.Rows { rows = got; _ } ->
          wrong := Printf.sprintf "%s: %d row(s)" sql (List.length got) :: !wrong
        | r -> wrong := Printf.sprintf "%s: %s" sql (Wire.render_response r) :: !wrong)
      queries expected
  in
  read_all ();
  read_all ();
  while_moving ~arm (fun () -> Coordinator.add_shard coord joining) read_all;
  while_moving ~arm (fun () -> Coordinator.remove_shard coord 0) read_all;
  read_all ();
  match !wrong with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%d of %d read(s) differ from the single node's, e.g. %s"
      (List.length all) !reads first

(* A DELETE that pins no key, issued once the joining shard holds moved
   rows, deletes every row: none is left at the joining shard or at a
   source afterwards. *)
let test_unpinned_delete_during_rebalance () =
  with_joining @@ fun coord ~joining ~direct ~arm ->
  ignore (exec coord "CREATE TABLE t (k, v)");
  for k = 1 to 300 do ignore (no_err "INSERT" (insert_kv coord k)) done;
  let deleted = ref None in
  while_moving ~arm
    (fun () -> Coordinator.add_shard coord joining)
    (fun () ->
      if Option.is_none !deleted then begin
        await_ingest direct;
        deleted := Some (Coordinator.exec coord "DELETE FROM t WHERE v >= 0")
      end
      else Thread.delay 0.001);
  (match !deleted with
   | Some (Wire.Ok_msg _) -> ()
   | Some r -> Alcotest.failf "DELETE: %s" (Wire.render_response r)
   | None -> Alcotest.fail "no DELETE ran");
  List.iter
    (fun prune ->
      let sql = "SELECT k FROM t" in
      Alcotest.(check int)
        (Printf.sprintf "rows left (prune %b)" prune)
        0
        (List.length (fst (rows_of sql (no_err sql (Coordinator.exec ~prune coord sql))))))
    [ true; false ]

(* An INSERT issued while a shard joins, of a key the move hands from
   shard 0 to the newcomer, waits for the move: it is acknowledged
   under the new map, and a later point read of its key is one message
   that finds it. *)
let test_statement_waits_out_rebalance () =
  with_joining @@ fun coord ~joining ~direct ~arm ->
  ignore (exec coord "CREATE TABLE t (k, v)");
  for k = 1 to 300 do ignore (no_err "INSERT" (insert_kv coord k)) done;
  let old_map = Coordinator.shard_map coord in
  let new_map =
    { old_map with
      Wire.shards =
        old_map.Wire.shards @ [ { Wire.shard_id = 2; shard_host = ""; shard_port = 0 } ]
    }
  in
  let rec handed k =
    if Wire.shard_owner old_map (Value.int k) = 0 && Wire.shard_owner new_map (Value.int k) = 2
    then k
    else handed (k + 1)
  in
  let k = handed 1000 in
  let answered = ref None in
  while_moving ~arm
    (fun () -> Coordinator.add_shard coord joining)
    (fun () ->
      if Option.is_none !answered then begin
        await_ingest direct;
        let reply = insert_kv coord k in
        answered := Some (reply, List.length (Coordinator.shard_map coord).Wire.shards)
      end
      else Thread.delay 0.001);
  (match !answered with
   | Some (Wire.Ok_msg _, shards) ->
     Alcotest.(check int) "acknowledged under the new map" 3 shards
   | Some (r, _) -> Alcotest.failf "INSERT: %s" (Wire.render_response r)
   | None -> Alcotest.fail "no INSERT ran");
  let sql = Printf.sprintf "SELECT k FROM t WHERE k = %d" k in
  Alcotest.(check int) "point read after the move: 1 message" 1 (messages_for coord sql);
  Alcotest.(check int) "the point read finds the row" 1
    (List.length (fst (rows_of sql (exec coord sql))))

(* A dropped connection is not a restart: the coordinator redials the
   same node, whose pongs bring the boot id it recorded, so once the
   redial is in no rule fires. *)
let test_health_redialled_shard () =
  with_shards 2 @@ fun _servers endpoints ->
  with_relays endpoints @@ fun relayed arms ->
  let coord = Coordinator.create ~heartbeat_interval:0. ~shards:relayed () in
  Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
  let reachable () =
    List.for_all (fun (_, _, reachable) -> reachable) (Coordinator.summaries coord)
  in
  (List.nth arms 1) `Hang_up;
  Coordinator.heartbeat_now coord;
  Alcotest.(check bool) "the cut round finds shard 1 unreachable" false (reachable ());
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (reachable ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05;
    Coordinator.heartbeat_now coord
  done;
  Alcotest.(check bool) "the redial is in" true (reachable ());
  match Coordinator.health coord with
  | { level = Ok; firing = [] } -> ()
  | { level; firing } ->
    Alcotest.failf "a redialled shard: %s"
      (Wire.render_response (Wire.Health_reply { level; firing }))

(* ---------- an interrupted move loses no row ---------- *)

(* One shard and two to join, each behind a relay.  A move is cut
   twice: at the first joining shard's load, and then, joining the
   second, at the source's removal, which a move sends only once every
   load is acknowledged.  Each time ADD SHARD answers an error, the map
   stays as it was, and every row written before is still found, by a
   point read and by a full scan; the second cut leaves copies at the
   joining shard. *)
let test_cut_move_loses_no_row () =
  with_shards 3 @@ fun _servers endpoints ->
  with_relays endpoints @@ fun relayed arms ->
  match (relayed, arms) with
  | [ a; c1; c2 ], [ arm_a; arm_c1; _ ] ->
    let coord = Coordinator.create ~heartbeat_interval:0. ~shards:[ a ] () in
    Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
    ignore (exec coord "CREATE TABLE t (k, v)");
    let row k = ([ Value.int k; Value.int (3 * k) ], Time.of_int 1000) in
    let keys = List.init 200 (fun i -> i + 1) in
    List.iter
      (fun k ->
        ignore (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 1000" k (3 * k))))
      keys;
    let version = (Coordinator.shard_map coord).Wire.map_version in
    (* The coordinator drops a cut connection and redials it after a
       backoff. *)
    let settled sql =
      let deadline = Unix.gettimeofday () +. 5. in
      let rec go () =
        match Coordinator.exec coord sql with
        | Wire.Err { code = Wire.Shard_failed; _ } when Unix.gettimeofday () < deadline ->
          Thread.delay 0.01;
          go ()
        | r -> fst (rows_of sql r)
      in
      go ()
    in
    let cut ~what arm (joining : Coordinator.endpoint) matches =
      arm (`Hang_up_on matches);
      (match
         Coordinator.exec coord
           (Printf.sprintf "ADD SHARD %s:%d" joining.Coordinator.host joining.Coordinator.port)
       with
       | Wire.Err _ -> ()
       | r -> Alcotest.failf "ADD SHARD cut at %s: %s" what (Wire.render_response r));
      Alcotest.(check int) (what ^ ": the map version is unchanged") version
        (Coordinator.shard_map coord).Wire.map_version;
      Alcotest.(check bool) (what ^ ": the full scan holds every row once") true
        (sorted (settled "SELECT k, v FROM t") = sorted (List.map row keys));
      List.iter
        (fun k ->
          let sql = Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k in
          Alcotest.(check bool) (what ^ ": " ^ sql ^ " finds its row") true
            (settled sql = [ row k ]))
        keys
    in
    cut ~what:"the load" arm_c1 c1 (function
      | Wire.Move_rows { add = _ :: _; _ } -> true
      | _ -> false);
    cut ~what:"the removal" arm_a c2 (function
      | Wire.Move_rows { remove = _ :: _; _ } -> true
      | _ -> false);
    let joined = connect (List.nth endpoints 2).Coordinator.port in
    Fun.protect ~finally:(fun () -> Client.close joined) (fun () ->
        match Client.exec joined "SELECT k, v FROM t" with
        | Ok (Wire.Rows { rows = _ :: _; _ }) -> ()
        | Ok r -> Alcotest.failf "the joining shard holds no copy: %s" (Wire.render_response r)
        | Error e -> Alcotest.fail e)
  | _ -> assert false

(* An ADD SHARD cut at the joining shard's load is retried onto the
   same node: the table the cut attempt made there is kept, the retry
   answers Ok at the next map version, and every row is found once —
   by a full scan, by its point read and by a COUNT.  A node that
   has the table with other columns is refused, and the refused ADD
   keeps no connection to it. *)
let test_add_shard_retried () =
  with_shards 3 @@ fun servers endpoints ->
  with_relays endpoints @@ fun relayed arms ->
  match (relayed, arms, servers) with
  | [ a; joining; _ ], [ _; arm; _ ], [ _; _; other ] ->
    let coord = Coordinator.create ~heartbeat_interval:0. ~shards:[ a ] () in
    Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
    ignore (exec coord "CREATE TABLE t (k, v)");
    let keys = List.init 200 (fun i -> i + 1) in
    List.iter
      (fun k ->
        ignore (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 1000" k (3 * k))))
      keys;
    ignore (exec coord "ADVANCE TO 5");
    let row k = ([ Value.int k; Value.int (3 * k) ], Time.of_int 1000) in
    let version = (Coordinator.shard_map coord).Wire.map_version in
    let add (e : Coordinator.endpoint) =
      Coordinator.exec coord
        (Printf.sprintf "ADD SHARD %s:%d" e.Coordinator.host e.Coordinator.port)
    in
    arm
      (`Hang_up_on
        (function
          | Wire.Move_rows { add = _ :: _; _ } -> true
          | _ -> false));
    (match add joining with
     | Wire.Err _ -> ()
     | r -> Alcotest.failf "ADD SHARD cut at the load: %s" (Wire.render_response r));
    (match add joining with
     | Wire.Ok_msg _ -> ()
     | r -> Alcotest.failf "the retried ADD SHARD: %s" (Wire.render_response r));
    Alcotest.(check int) "the retry is map v+1" (version + 1)
      (Coordinator.shard_map coord).Wire.map_version;
    Alcotest.(check bool) "the full scan holds every row once" true
      (sorted (fst (rows_of "scan" (exec coord "SELECT k, v FROM t")))
      = sorted (List.map row keys));
    List.iter
      (fun k ->
        let sql = Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k in
        Alcotest.(check bool) (sql ^ " finds its row") true
          (fst (rows_of sql (exec coord sql)) = [ row k ]))
      keys;
    (match exec coord "SELECT COUNT(*) FROM t" with
     | Wire.Rows { rows = [ ([ n ], _) ]; _ } ->
       Alcotest.(check bool) "COUNT(*) counts every row once" true (n = Value.int 200)
     | r -> Alcotest.failf "COUNT(*): %s" (Wire.render_response r));
    let direct = connect (Server.port other) in
    Fun.protect ~finally:(fun () -> Client.close direct) (fun () ->
        ignore (Client.exec direct "CREATE TABLE t (k)"));
    (match add { Coordinator.host = "127.0.0.1"; port = Server.port other } with
     | Wire.Err { message; _ } ->
       Alcotest.(check bool) ("refused: " ^ message) true (string_contains message "(k)")
     | r -> Alcotest.failf "ADD SHARD of a node with other columns: %s" (Wire.render_response r));
    let active () =
      sample (Metrics.prometheus (Server.metrics other)) "expirel_connections_active"
    in
    let deadline = Unix.gettimeofday () +. 5. in
    while active () <> 0. && Unix.gettimeofday () < deadline do Thread.delay 0.01 done;
    Alcotest.(check (float 0.)) "connections left open on the refused node" 0. (active ())
  | _ -> assert false

(* An ADD SHARD cut at its source's removal leaves copies at the
   joining shard, which the old map never reads.  A key deleted
   through the coordinator meanwhile reaches only its old owner; the
   retried ADD empties the joining shard's table before its move, so
   that key stays gone once the joiner owns it, and a COUNT counts
   every row left once. *)
let test_add_shard_retried_after_removal_cut () =
  with_shards 2 @@ fun _servers endpoints ->
  with_relays endpoints @@ fun relayed arms ->
  match (relayed, arms) with
  | [ a; joining ], [ arm_a; _ ] ->
    let coord = Coordinator.create ~heartbeat_interval:0. ~shards:[ a ] () in
    Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
    ignore (exec coord "CREATE TABLE t (k, v)");
    let keys = List.init 200 (fun i -> i + 1) in
    List.iter
      (fun k ->
        ignore (exec coord (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES 1000" k (3 * k))))
      keys;
    let row k = ([ Value.int k; Value.int (3 * k) ], Time.of_int 1000) in
    let version = (Coordinator.shard_map coord).Wire.map_version in
    let add () =
      Coordinator.exec coord
        (Printf.sprintf "ADD SHARD %s:%d" joining.Coordinator.host joining.Coordinator.port)
    in
    (* The coordinator drops the cut connection and redials it after a
       backoff; a write meanwhile answers "endpoint unavailable". *)
    let settled sql =
      let deadline = Unix.gettimeofday () +. 5. in
      let rec go () =
        match Coordinator.exec coord sql with
        | Wire.Err _ when Unix.gettimeofday () < deadline ->
          Thread.delay 0.01;
          go ()
        | r -> r
      in
      go ()
    in
    arm_a
      (`Hang_up_on
        (function
          | Wire.Move_rows { remove = _ :: _; _ } -> true
          | _ -> false));
    (match add () with
     | Wire.Err _ -> ()
     | r -> Alcotest.failf "ADD SHARD cut at the removal: %s" (Wire.render_response r));
    let gone =
      let direct = connect (List.nth endpoints 1).Coordinator.port in
      Fun.protect ~finally:(fun () -> Client.close direct) (fun () ->
          match Client.exec direct "SELECT k FROM t" with
          | Ok (Wire.Rows { rows = ([ k ], _) :: _; _ }) -> k
          | Ok r -> Alcotest.failf "the joining shard holds no copy: %s" (Wire.render_response r)
          | Error e -> Alcotest.fail e)
    in
    (match settled ("DELETE FROM t WHERE k = " ^ Value.to_string gone) with
     | Wire.Ok_msg _ -> ()
     | r -> Alcotest.failf "DELETE of a copied key: %s" (Wire.render_response r));
    (match add () with
     | Wire.Ok_msg _ -> ()
     | r -> Alcotest.failf "the retried ADD SHARD: %s" (Wire.render_response r));
    Alcotest.(check int) "the retry is map v+1" (version + 1)
      (Coordinator.shard_map coord).Wire.map_version;
    let deleted k = Value.equal (Value.int k) gone in
    let left = List.filter (fun k -> not (deleted k)) keys in
    Alcotest.(check bool) "the full scan holds every row left once" true
      (sorted (fst (rows_of "scan" (exec coord "SELECT k, v FROM t")))
      = sorted (List.map row left));
    List.iter
      (fun k ->
        let sql = Printf.sprintf "SELECT k, v FROM t WHERE k = %d" k in
        Alcotest.(check bool) (sql ^ " finds what is left") true
          (fst (rows_of sql (exec coord sql)) = if deleted k then [] else [ row k ]))
      keys;
    (match exec coord "SELECT COUNT(*) FROM t" with
     | Wire.Rows { rows = [ ([ n ], _) ]; _ } ->
       Alcotest.(check bool) "COUNT(*) counts every row left once" true (n = Value.int 199)
     | r -> Alcotest.failf "COUNT(*): %s" (Wire.render_response r))
  | _ -> assert false

let suite =
  [ Alcotest.test_case "scatter-gather == single node" `Quick
      test_matches_single_node;
    Alcotest.test_case "a repeated GROUP BY COUNT ships only written groups"
      `Quick test_standing_groupby;
    Alcotest.test_case "a kept GROUP BY follows the shards' clock" `Quick
      test_standing_clock;
    Alcotest.test_case "a kept GROUP BY rests after heavy deltas" `Quick
      test_standing_rests;
    Alcotest.test_case "a negative or future cursor gets every group" `Quick
      test_standing_cursor_bounds;
    Alcotest.test_case "a TICK past 512 groups' nu is read as a delta" `Quick
      test_standing_tick_past_log;
    Alcotest.test_case "a failed kept read drops the copies to version 0" `Quick
      test_standing_unrecorded_version;
    Alcotest.test_case "inserts land on shard_owner's pick" `Quick
      test_insert_routing;
    Alcotest.test_case "expired shards are pruned, answers unchanged" `Quick
      test_pruning;
    Alcotest.test_case "one trace id spans coordinator and shards" `Quick
      test_cross_node_trace;
    Alcotest.test_case "shard GROUP BY folds under an aggregate span" `Quick
      test_shard_fold_span;
    Alcotest.test_case "rebalance preserves contents" `Quick test_rebalance;
    Alcotest.test_case "a client reaches a cluster as it reaches a node" `Quick
      test_client_reaches_cluster;
    Alcotest.test_case "a coordinator answers the wire's observability" `Quick
      test_coordinator_answers_the_wire;
    Alcotest.test_case "SHARDS, ADD SHARD and REMOVE SHARD over the wire" `Quick
      test_membership_statements;
    Alcotest.test_case "a joining shard gets the broadcast indexes" `Quick
      test_add_shard_replays_indexes;
    Alcotest.test_case "health: unreachable shards degrade" `Quick
      test_health_unreachable;
    Alcotest.test_case "health: restarted shard reads stale" `Quick
      test_health_stale_map;
    Alcotest.test_case "health: a redialled shard fires no rule" `Quick
      test_health_redialled_shard;
    Alcotest.test_case "create claims n shards with n messages" `Quick
      test_create_one_round;
    Alcotest.test_case "only per-node features are refused" `Quick
      test_refusals;
    Alcotest.test_case "GROUP BY/AVG/joins match a single node" `Quick
      test_distributed_groupby_joins;
    Alcotest.test_case "COUNT shard partials keep two slices per group" `Quick
      test_count_partial_two_slices;
    Alcotest.test_case "a dead shard surfaces as Shard_failed" `Quick
      test_shard_failed;
    Alcotest.test_case "a shard killed mid-fan-out: one failure, no stale frame"
      `Quick test_killed_mid_fanout;
    Alcotest.test_case "a broadcast reaches every live shard past a dead one"
      `Quick test_broadcast_past_dead_shard;
    Alcotest.test_case "concurrent scatters, point reads and TICKs" `Quick
      test_concurrent_fanouts;
    Alcotest.test_case "a shard whose host does not resolve locks nothing"
      `Quick test_unresolvable_shard;
    Alcotest.test_case "a slow shard stalls no other shard's traffic" `Quick
      test_slow_shard_no_head_of_line;
    Alcotest.test_case "a shard's statement error answers like one node's"
      `Quick test_shard_partial_error;
    Alcotest.test_case "an AT in the past is refused on every route" `Quick
      test_past_at_refused;
    qcheck_cluster_matches_single_node;
    Alcotest.test_case "global aggregates combine from shard partials" `Quick
      test_aggregate_combine;
    Alcotest.test_case "APPROX_COUNT/SAMPLE merge sketch partials" `Quick
      test_sketch_merge;
    Alcotest.test_case "SAMPLE with a huge k equals the single node" `Quick
      test_huge_sample;
    Alcotest.test_case "horizon: shard partials merge to the union profile"
      `Quick test_horizon_cluster;
    Alcotest.test_case "horizon: storm rule fires before the drop" `Quick
      test_cluster_storm_rule;
    Alcotest.test_case "DELETE/VACUUM acks sum the shards' counts" `Quick
      test_broadcast_counts;
    Alcotest.test_case "EXPLAIN prints the coordinator's plan per route" `Quick
      test_explain_routes;
    Alcotest.test_case "a pinned key contacts only its owners" `Quick
      test_routed_traffic;
    qcheck_routed_matches_broadcast;
    Alcotest.test_case "point reads find their rows across a rebalance"
      `Quick test_routed_reads_across_rebalance;
    Alcotest.test_case "acknowledged inserts survive ADD and REMOVE SHARD" `Quick
      test_inserts_survive_rebalance;
    Alcotest.test_case "reads during a rebalance equal the single node's" `Quick
      test_reads_during_rebalance;
    Alcotest.test_case "an unpinned DELETE during a rebalance leaves no row" `Quick
      test_unpinned_delete_during_rebalance;
    Alcotest.test_case "a move cut after its loads loses no row" `Quick
      test_cut_move_loses_no_row;
    Alcotest.test_case "a failed ADD SHARD can be retried" `Quick
      test_add_shard_retried;
    Alcotest.test_case "a retried ADD SHARD keeps a key deleted after the cut" `Quick
      test_add_shard_retried_after_removal_cut;
    Alcotest.test_case "a statement issued during a rebalance waits and answers after it"
      `Quick test_statement_waits_out_rebalance ]
