(* Experiment exp-cluster: scatter-gather over real shards, and what
   expiration-aware pruning saves.

   A 3-shard cluster (in-process servers, loopback sockets) serves a
   hash-partitioned table.  Measured:

   - scatter-gather read throughput through the coordinator (parallel
     fan-out, union-rule merge) against single-shard routed reads;
   - coordinator-to-shard traffic (messages and bytes) for the same
     query mix with pruning on vs forced broadcast, after most of the
     keyspace has expired — the cluster-level payoff of the paper's
     min/max-texp bounds: shards whose whole partition is provably
     dead at tau are never contacted;
   - key-routed point reads ([WHERE k = c] on the partitioning column)
     against the same reads forced to broadcast;
   - a repeated GROUP BY COUNT over 10^4 rows in 10^3 groups with one
     routed write between reads: microseconds and shard bytes per read
     when the coordinator keeps the groups and the shards ship deltas,
     against the stateless path; and the same for 24 and 80 texts
     cycled in rotation, for 1 800 writes between reads, and for a
     TICK between reads that crosses the nu of 100 groups.

   Expected shape: with 2 of 3 partitions expired, pruning cuts fan-out
   messages by ~2/3 and reply bytes by more (dead shards answer with
   empty listings, live ones with rows either way); a routed point read
   sends one message instead of three. *)

open Expirel_core
open Expirel_server
module Coordinator = Expirel_cluster.Coordinator

let shards = 3
let keys = 300
let queries = 200

let no_err = function
  | Wire.Err { message; _ } -> failwith message
  | (r : Wire.response) -> r

let with_cluster f =
  let config =
    { Server.default_config with Server.host = "127.0.0.1"; port = 0 }
  in
  let servers = List.init shards (fun _ -> Server.create ~config ()) in
  List.iter Server.start servers;
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop servers)
    (fun () ->
      let coord =
        Coordinator.create ~heartbeat_interval:0.
          ~shards:
            (List.map
               (fun s ->
                 { Coordinator.host = "127.0.0.1"; port = Server.port s })
               servers)
          ()
      in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) (fun () -> f coord))

let run_all () =
  Bench_util.section "exp-cluster: sharded scatter-gather and pruning";
  Bench_util.param_int "shards" shards;
  Bench_util.param_int "keys" keys;
  Bench_util.param_int "queries" queries;
  with_cluster (fun coord ->
      ignore (no_err (Coordinator.exec coord "CREATE TABLE t (k, v)"));
      (* Two expiration cohorts: keys on shard 0 live to 1000, all other
         keys die at 10 — after ADVANCE TO 100, two of three partitions
         are provably empty. *)
      let map = Coordinator.shard_map coord in
      List.iter
        (fun k ->
          let texp =
            if Wire.shard_owner map (Value.int k) = 0 then 1000 else 10
          in
          ignore
            (no_err
               (Coordinator.exec coord
                  (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d" k
                     (k * 7) texp))))
        (List.init keys (fun i -> i + 1));

      (* ---- scatter-gather throughput, everything live ---- *)
      Bench_util.subsection "scatter-gather reads, all partitions live";
      let (), fanout_s =
        Bench_util.time_it (fun () ->
            for i = 1 to queries do
              ignore
                (no_err
                   (Coordinator.exec coord
                      (Printf.sprintf "SELECT * FROM t WHERE v = %d"
                         (i * 7 mod (keys * 7)))))
            done)
      in
      let fanout_rps = float_of_int queries /. fanout_s in
      Printf.printf "scatter-gather: %d queries in %.3f s (%.0f req/s)\n"
        queries fanout_s fanout_rps;
      Bench_util.metric "scatter_gather_req_per_s" fanout_rps;

      (* ---- routed single-key inserts as a throughput baseline ---- *)
      let (), insert_s =
        Bench_util.time_it (fun () ->
            for i = 1 to queries do
              ignore
                (no_err
                   (Coordinator.exec coord
                      (Printf.sprintf
                         "INSERT INTO t VALUES (%d, 0) EXPIRES 1000"
                         (keys + i))))
            done)
      in
      Printf.printf "routed inserts: %d in %.3f s (%.0f req/s)\n" queries
        insert_s
        (float_of_int queries /. insert_s);
      Bench_util.metric "routed_insert_req_per_s"
        (float_of_int queries /. insert_s);
      (* Remove the extra rows so both traffic runs see the same data. *)
      ignore
        (no_err
           (Coordinator.exec coord
              (Printf.sprintf "DELETE FROM t WHERE k > %d" keys)));

      (* ---- traffic: pruned fan-out vs broadcast after expiry ---- *)
      Bench_util.subsection "traffic after 2/3 of the keyspace expired";
      ignore (no_err (Coordinator.exec coord "ADVANCE TO 100"));
      let run ~prune =
        let before = Coordinator.traffic coord in
        for _ = 1 to queries do
          ignore (no_err (Coordinator.exec ~prune coord "SELECT * FROM t"))
        done;
        let after = Coordinator.traffic coord in
        ( after.Coordinator.messages - before.Coordinator.messages,
          after.Coordinator.bytes_sent - before.Coordinator.bytes_sent
          + after.Coordinator.bytes_received
          - before.Coordinator.bytes_received )
      in
      let broadcast_msgs, broadcast_bytes = run ~prune:false in
      let pruned_msgs, pruned_bytes = run ~prune:true in
      let pct saved total =
        100. *. float_of_int saved /. float_of_int (max 1 total)
      in
      Bench_util.table
        ~headers:[ "fan-out"; "messages"; "bytes on the wire" ]
        [ [ "broadcast"; string_of_int broadcast_msgs;
            string_of_int broadcast_bytes ];
          [ "pruned"; string_of_int pruned_msgs; string_of_int pruned_bytes ];
          [ "saved";
            Printf.sprintf "%.0f%%" (pct (broadcast_msgs - pruned_msgs) broadcast_msgs);
            Printf.sprintf "%.0f%%" (pct (broadcast_bytes - pruned_bytes) broadcast_bytes)
          ] ];
      Bench_util.metric_int "broadcast_messages" broadcast_msgs;
      Bench_util.metric_int "pruned_messages" pruned_msgs;
      Bench_util.metric_int "broadcast_bytes" broadcast_bytes;
      Bench_util.metric_int "pruned_bytes" pruned_bytes;
      Bench_util.metric "messages_saved_pct"
        (pct (broadcast_msgs - pruned_msgs) broadcast_msgs);
      Bench_util.metric "bytes_saved_pct"
        (pct (broadcast_bytes - pruned_bytes) broadcast_bytes);
      Bench_util.metric_int "pruned_shard_contacts"
        (Coordinator.traffic coord).Coordinator.pruned;

      (* ---- distributed GROUP BY and joins vs gather-then-compute ----

         The coordinator answers a grouped aggregate by decomposing it
         into per-shard slice partials, and a join that is not
         co-partitioned by gathering the base tables and computing
         locally.  Measured head to head: a GROUP BY combined from
         partials vs a query shipping the same table wholesale through
         the fallback, and the cost of one gathered join. *)
      Bench_util.subsection "distributed GROUP BY / joins vs gather";
      List.iter
        (fun sql -> ignore (no_err (Coordinator.exec coord sql)))
        ([ "CREATE TABLE g (k, grp)";
           "CREATE TABLE dim (tag, label)";
           "CREATE TABLE none (tag, label)" ]
        @ List.init keys (fun i ->
              Printf.sprintf "INSERT INTO g VALUES (%d, %d) EXPIRES 1000"
                (i + 1)
                ((i + 1) mod 10))
        @ List.init 10 (fun d ->
              Printf.sprintf "INSERT INTO dim VALUES (%d, %d) EXPIRES 1000" d
                (d * 2)));
      let timed sql =
        let before = Coordinator.traffic coord in
        let (), s =
          Bench_util.time_it (fun () ->
              for _ = 1 to queries do
                ignore (no_err (Coordinator.exec coord sql))
              done)
        in
        let after = Coordinator.traffic coord in
        let bytes =
          (after.Coordinator.bytes_sent - before.Coordinator.bytes_sent
          + after.Coordinator.bytes_received
          - before.Coordinator.bytes_received)
          / queries
        in
        (float_of_int queries /. s, bytes)
      in
      (* 10 groups straddling every shard, combined from slice partials
         vs the fallback hauling all of g to the coordinator (an EXCEPT
         against an empty table over projections that drop the hash key
         routes through it). *)
      let group_rps, group_bytes =
        timed "SELECT grp, COUNT(*) FROM g GROUP BY grp"
      in
      let gather_rps, gather_bytes =
        timed "SELECT grp FROM g EXCEPT SELECT label FROM none"
      in
      (* GROUP BY over rows whose texps all differ ([g]'s rows share
         one texp, so each of its groups is one slice anyway): a COUNT
         group still ships at most two slices per shard.  The gather
         path answers the same grouping over a join with a one-row
         immortal table, which changes no row or texp; the two answers
         must agree. *)
      List.iter
        (fun sql -> ignore (no_err (Coordinator.exec coord sql)))
        ([ "CREATE TABLE gd (k, grp, z)";
           "CREATE TABLE one (z)";
           "INSERT INTO one VALUES (0)" ]
        @ List.init keys (fun i ->
              Printf.sprintf "INSERT INTO gd VALUES (%d, %d, 0) EXPIRES %d"
                (i + 1)
                ((i + 1) mod 10)
                (1000 + i)));
      let distinct_sql = "SELECT grp, COUNT(*) FROM gd GROUP BY grp" in
      let gathered_sql =
        "SELECT gd.grp, COUNT(*) FROM gd JOIN one ON gd.z = one.z \
         GROUP BY gd.grp"
      in
      let answer sql =
        match no_err (Coordinator.exec coord sql) with
        | Wire.Rows { rows; texp_e; _ } -> (List.sort compare rows, texp_e)
        | r -> failwith (sql ^ ": " ^ Wire.render_response r)
      in
      let partial_rows, partial_texp = answer distinct_sql in
      let gathered_rows, gathered_texp = answer gathered_sql in
      if
        List.length partial_rows <> 10
        || partial_rows <> gathered_rows
        || not (Time.equal partial_texp gathered_texp)
      then
        failwith
          "exp-cluster: GROUP BY via slice partials differs from the \
           gather path";
      let distinct_rps, distinct_bytes = timed distinct_sql in
      let gathered_rps, gathered_bytes = timed gathered_sql in
      (* A join on a column that is not the partitioning key, gathered
         to the coordinator (the AT pinned to the cluster clock changes
         no answer; it keeps the query text of earlier runs). *)
      let gjoin_rps, gjoin_bytes =
        timed "SELECT * FROM g JOIN dim ON g.grp = dim.tag AT 100"
      in
      Bench_util.table
        ~headers:[ "query"; "req/s"; "bytes/query" ]
        [ [ "GROUP BY via slice partials"; Printf.sprintf "%.0f" group_rps;
            string_of_int group_bytes ];
          [ "gather the table (fallback)"; Printf.sprintf "%.0f" gather_rps;
            string_of_int gather_bytes ];
          [ "GROUP BY, distinct texps"; Printf.sprintf "%.0f" distinct_rps;
            string_of_int distinct_bytes ];
          [ "same GROUP BY, gather-compute";
            Printf.sprintf "%.0f" gathered_rps; string_of_int gathered_bytes ];
          [ "join, gather-compute"; Printf.sprintf "%.0f" gjoin_rps;
            string_of_int gjoin_bytes ] ];
      Bench_util.metric "groupby_partials_req_per_s" group_rps;
      Bench_util.metric_int "groupby_partials_bytes_per_query" group_bytes;
      Bench_util.metric "gather_table_req_per_s" gather_rps;
      Bench_util.metric_int "gather_table_bytes_per_query" gather_bytes;
      Bench_util.metric "groupby_distinct_texp_req_per_s" distinct_rps;
      Bench_util.metric_int "groupby_distinct_texp_bytes_per_query"
        distinct_bytes;
      Bench_util.metric "groupby_gather_req_per_s" gathered_rps;
      Bench_util.metric_int "groupby_gather_bytes_per_query" gathered_bytes;
      Bench_util.metric "gather_join_req_per_s" gjoin_rps;
      Bench_util.metric_int "gather_join_bytes_per_query" gjoin_bytes;

      (* ---- a repeated GROUP BY COUNT, one write between reads ----

         10^4 rows in 10^3 groups.  The coordinator keeps the merged
         groups, and each shard answers the version of its groups the
         coordinator's copy holds with the groups changed since: after
         one routed write, one group crosses the wire and one is
         re-finalised.  The same reads through the
         forced broadcast ([~prune:false]) take the stateless path —
         every shard's condensed groups, merged and finalised whole.

         Two traffic shapes the kept path cannot exploit, each against
         the stateless path: texts cycled in rotation (24 fit both the
         coordinator's entries and the shards' statement cache, 80 fit
         neither, so every read is a text's first), and 1 800 writes
         between reads (most groups change, so a delta ships most of
         them).  And one with no write at all: a
         [TICK 1] between reads of a second 10^4-row table, each tick
         crossing the nu of 100 of its 10^3 groups, which the shards
         ship.  Each shape starts on a compacted heap, so it does not
         pay for the garbage its predecessors left. *)
      Bench_util.subsection "repeated GROUP BY COUNT, one write between reads";
      let sg_rows = 10_000 and sg_groups = 1_000 in
      ignore (no_err (Coordinator.exec coord "CREATE TABLE sg (k, grp)"));
      for k = 1 to sg_rows do
        ignore
          (no_err
             (Coordinator.exec coord
                (Printf.sprintf "INSERT INTO sg VALUES (%d, %d) EXPIRES %d" k
                   (k mod sg_groups) (100_000 + (k mod 97)))))
      done;
      let sg_sql = "SELECT grp, COUNT(*) FROM sg GROUP BY grp" in
      (* A timed read is the request alone: its rows are sorted only
         where two answers are compared. *)
      let answer ~prune sql =
        match no_err (Coordinator.exec ~prune coord sql) with
        | Wire.Rows { rows; texp_e; _ } -> (rows, texp_e)
        | r -> failwith (sql ^ ": " ^ Wire.render_response r)
      in
      let sorted ~prune sql =
        let rows, texp_e = answer ~prune sql in
        (List.sort compare rows, texp_e)
      in
      let written = ref 0 in
      let overwrite () =
        (* row k takes a new texp *)
        incr written;
        let k = (!written mod sg_rows) + 1 in
        ignore
          (no_err
             (Coordinator.exec coord
                (Printf.sprintf "INSERT INTO sg VALUES (%d, %d) EXPIRES %d" k
                   (k mod sg_groups) (200_000 + !written))))
      in
      (* [reads] reads cycling through [texts], [writes] overwrites
         before each; microseconds and shard bytes per read.  [rounds]
         unmeasured rounds first: a text's first read is stateless (the
         shards plan it), its second ships every group, its third a
         delta. *)
      let tick () = ignore (no_err (Coordinator.exec coord "TICK 1")) in
      let before ~warm = function
        | `Writes n -> for _ = 1 to if warm then 1 else n do overwrite () done
        | `Tick -> tick ()
      in
      let repeated ~prune ~texts ~rounds ~traffic ~reads =
        let texts = Array.of_list texts in
        let text i = texts.(i mod Array.length texts) in
        for i = 0 to (rounds * Array.length texts) - 1 do
          before ~warm:true traffic;
          ignore (answer ~prune (text i))
        done;
        let bytes = ref 0 and seconds = ref 0. in
        for i = 0 to reads - 1 do
          before ~warm:false traffic;
          let before = Coordinator.traffic coord in
          let (_ : _ * Time.t), s = Bench_util.time_it (fun () -> answer ~prune (text i)) in
          let after = Coordinator.traffic coord in
          bytes :=
            !bytes + after.Coordinator.bytes_sent - before.Coordinator.bytes_sent
            + after.Coordinator.bytes_received - before.Coordinator.bytes_received;
          seconds := !seconds +. s
        done;
        (!seconds *. 1e6 /. float_of_int reads, !bytes / reads)
      in
      let filtered n =
        (* distinct texts, each keeping every row *)
        List.init n (fun i ->
            Printf.sprintf "SELECT grp, COUNT(*) FROM sg WHERE k > %d GROUP BY grp" (-i))
      in
      (* Loaded just before its shape, so the shapes before it run on
         the heap they always had.  Row k of [sk] is in group k mod
         10^3, and the groups whose number ends in d lose a member at
         d + 1, d + 11, ..., d + 91 ticks from now: every tick crosses
         the nu of 100 groups. *)
      let load = function
        | `Writes _ -> ()
        | `Tick ->
          ignore (no_err (Coordinator.exec coord "CREATE TABLE sk (k, grp)"));
          for k = 0 to sg_rows - 1 do
            let grp = k mod sg_groups in
            ignore
              (no_err
                 (Coordinator.exec coord
                    (Printf.sprintf "INSERT INTO sk VALUES (%d, %d) TTL %d" k grp
                       (1 + (grp mod 10) + (10 * (k / sg_groups))))))
          done
      in
      let shapes =
        [ ("one text, 1 write", "n10000_g1000", [ sg_sql ], 3, `Writes 1, 100);
          ("one text, 1800 writes", "w1800", [ sg_sql ], 3, `Writes 1800, 12);
          ("24 texts cycled, 1 write", "t24", filtered 24, 3, `Writes 1, 48);
          ("80 texts cycled, 1 write", "t80", filtered 80, 1, `Writes 1, 40);
          ("one text, TICK between reads", "tick",
           [ "SELECT grp, COUNT(*) FROM sk GROUP BY grp" ], 3, `Tick, 20) ]
      in
      let rows =
        List.concat_map
          (fun (shape, tag, texts, rounds, traffic, reads) ->
            load traffic;
            Gc.compact ();
            let kept_us, kept_bytes = repeated ~prune:true ~texts ~rounds ~traffic ~reads in
            let stateless_us, stateless_bytes =
              repeated ~prune:false ~texts ~rounds ~traffic ~reads
            in
            List.iter
              (fun sql ->
                if sorted ~prune:true sql <> sorted ~prune:false sql then
                  failwith "exp-cluster: the kept GROUP BY differs from the stateless one")
              texts;
            Bench_util.metric (Printf.sprintf "standing_groupby_%s_us_per_read" tag) kept_us;
            Bench_util.metric_int (Printf.sprintf "standing_groupby_%s_bytes_per_read" tag)
              kept_bytes;
            Bench_util.metric (Printf.sprintf "stateless_groupby_%s_us_per_read" tag)
              stateless_us;
            Bench_util.metric_int (Printf.sprintf "stateless_groupby_%s_bytes_per_read" tag)
              stateless_bytes;
            [ [ shape; "kept"; Printf.sprintf "%.0f" kept_us; string_of_int kept_bytes ];
              [ shape; "stateless (~prune:false)"; Printf.sprintf "%.0f" stateless_us;
                string_of_int stateless_bytes ] ])
          shapes
      in
      if List.length (fst (answer ~prune:true sg_sql)) <> sg_groups then
        failwith "exp-cluster: the kept GROUP BY lost groups";
      Bench_util.table ~headers:[ "traffic"; "path"; "us/read"; "shard bytes/read" ] rows;

      (* ---- key-routed point reads vs broadcast ----

         A point read on the partitioning column asks only the key's
         owner; [~prune:false] forces the same reads to every shard.
         The v = ... scatter rows above pin no key and are unchanged. *)
      Bench_util.subsection "key-routed point reads vs broadcast";
      let point ~prune =
        let before = Coordinator.traffic coord in
        let (), s =
          Bench_util.time_it (fun () ->
              for i = 1 to queries do
                ignore
                  (no_err
                     (Coordinator.exec ~prune coord
                        (Printf.sprintf "SELECT * FROM g WHERE k = %d"
                           ((i mod keys) + 1))))
              done)
        in
        let after = Coordinator.traffic coord in
        ( float_of_int queries /. s,
          float_of_int
            (after.Coordinator.messages - before.Coordinator.messages)
          /. float_of_int queries )
      in
      let routed_rps, routed_msgs = point ~prune:true in
      let bcast_rps, bcast_msgs = point ~prune:false in
      Bench_util.table
        ~headers:[ "point read"; "req/s"; "messages/query" ]
        [ [ "key-routed"; Printf.sprintf "%.0f" routed_rps;
            Printf.sprintf "%.2f" routed_msgs ];
          [ "broadcast (~prune:false)"; Printf.sprintf "%.0f" bcast_rps;
            Printf.sprintf "%.2f" bcast_msgs ] ];
      Bench_util.metric "point_routed_req_per_s" routed_rps;
      Bench_util.metric "point_routed_messages_per_query" routed_msgs;
      Bench_util.metric "point_broadcast_req_per_s" bcast_rps;
      Bench_util.metric "point_broadcast_messages_per_query" bcast_msgs)
