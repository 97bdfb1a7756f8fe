(* The horizon is a *forecast*, not a sample: expiration times are
   explicit and logical time is deterministic, so the bucketed "rows
   expiring within the next d ticks" profile is exact.  The properties
   pinned here: a bucket's count equals the rows a subsequent ADVANCE
   actually drops; per-shard partials merge bucket-wise into precisely
   the single-node profile; and the subscription fan-out forecast
   equals the events an advance then delivers. *)

open Expirel_core
open Expirel_storage
open Expirel_sqlx
module Horizon = Expirel_obs.Horizon
module Gen = QCheck2.Gen

let fin = Time.of_int

(* A workload is a list of optional TTLs: [Some k] inserts a row
   expiring at tick [k], [None] a never-expiring one. *)
let ttls = Gen.list_size (Gen.int_range 0 20) (Gen.option (Gen.int_range 1 24))

let must_ok interp sql =
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" sql e)
    (Interp.exec_script interp sql)

let insert_sql ~table i = function
  | None -> Printf.sprintf "INSERT INTO %s VALUES (%d, %d);" table i (i mod 3)
  | Some k ->
    Printf.sprintf "INSERT INTO %s VALUES (%d, %d) EXPIRES %d;" table i
      (i mod 3) k

let total_expiring_within report d =
  List.fold_left
    (fun acc tb -> acc + Horizon.expiring_within tb d)
    0 report.Horizon.tables

let total_live report =
  List.fold_left (fun acc tb -> acc + Horizon.live tb) 0 report.Horizon.tables

(* ---------- forecast exactness, single node ----------

   For any bucket bound d, "rows expiring within d ticks" must equal
   the rows ADVANCE TO now+d then drops — the forecast verifies against
   the future it predicted.  (d ranges over the actual bucket bounds:
   the profile is bucketed, so only cuts at bounds are exact.) *)

let forecast_matches_advance =
  Generators.qtest "bucket counts equal rows dropped by ADVANCE" ~count:150
    (Gen.pair ttls (Gen.oneofl [ 1; 2; 4; 8; 16; 32 ]))
    (fun (rows, d) ->
      let interp = Interp.create () in
      must_ok interp "CREATE TABLE t (uid, v);";
      List.iteri (fun i ttl -> must_ok interp (insert_sql ~table:"t" i ttl)) rows;
      let report = Interp.horizon interp in
      let db = Interp.database interp in
      let predicted = total_expiring_within report d in
      let live_before = Database.live_rows db in
      let expired_before = Database.expired_total db in
      must_ok interp (Printf.sprintf "ADVANCE TO %d;" d);
      let dropped = Database.expired_total db - expired_before in
      total_live report = live_before
      && dropped = predicted
      && Database.live_rows db = live_before - predicted
      (* the fresh profile at the new clock has forgotten the drops *)
      && total_live (Interp.horizon interp) = live_before - predicted)

(* ---------- merge law: shard partials vs the union ----------

   Hash partitions are disjoint, so bucket-wise addition of per-shard
   profiles is exact: merged 3-shard partials equal the profile of one
   node holding every row.  The per-shard live rows concatenate in
   shard order and sum to the node's; node reports carry none. *)

let merge_matches_union =
  Generators.qtest "3-shard partials merge to the single-node profile"
    ~count:150 ttls
    (fun rows ->
      let mk () =
        let interp = Interp.create () in
        must_ok interp "CREATE TABLE t (uid, v); CREATE TABLE u (uid, v);";
        interp
      in
      let union = mk () in
      let shards = Array.init 3 (fun _ -> mk ()) in
      List.iteri
        (fun i ttl ->
          let table = if i mod 2 = 0 then "t" else "u" in
          let sql = insert_sql ~table i ttl in
          must_ok union sql;
          must_ok shards.(i mod 3) sql)
        rows;
      let labelled i shard =
        let r = Interp.horizon shard in
        { r with Horizon.shards = [ (string_of_int i, total_live r) ] }
      in
      let merged = Horizon.merge_reports (Array.to_list (Array.mapi labelled shards)) in
      let single = Interp.horizon union in
      merged.Horizon.tables = single.Horizon.tables
      && merged.Horizon.now = single.Horizon.now
      && merged.Horizon.window = single.Horizon.window
      && List.map fst merged.Horizon.shards = [ "0"; "1"; "2" ]
      && List.fold_left (fun acc (_, n) -> acc + n) 0 merged.Horizon.shards
         = total_live single
      && single.Horizon.shards = []
      && (Horizon.merge_reports (Array.to_list (Array.map Interp.horizon shards)))
           .Horizon.shards = [])

let test_merge_rejects_mismatched_buckets () =
  let tb name bounds =
    { Horizon.name; bounds; counts = Array.map (fun _ -> 1) bounds }
  in
  (match Horizon.merge [ [ tb "t" [| 1; 2 |] ]; [ tb "t" [| 1; 4 |] ] ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "mismatched bucket bounds merged");
  match Horizon.merge_reports [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty merge accepted"

(* ---------- fan-out forecast: predicted = delivered ---------- *)

let forecast_equals_delivered =
  Generators.qtest "forecast_events equals events then delivered" ~count:150
    (Gen.pair ttls (Gen.int_range 0 30))
    (fun (rows, start) ->
      let interp = Interp.create () in
      must_ok interp "CREATE TABLE t (uid, v);";
      List.iteri (fun i ttl -> must_ok interp (insert_sql ~table:"t" i ttl)) rows;
      let fired = ref 0 in
      List.iter
        (fun (name, sql) ->
          match
            Interp.subscribe interp ~name (Parser.parse_statement sql)
              (fun _ -> incr fired)
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" sql e)
        [ ("all", "SELECT uid FROM t");
          ("counts", "SELECT v, COUNT(*) FROM t GROUP BY v") ];
      must_ok interp (Printf.sprintf "ADVANCE TO %d;" start);
      fired := 0;
      let report = Interp.horizon interp in
      must_ok interp
        (Printf.sprintf "ADVANCE TO %d;" (start + report.Horizon.window));
      report.Horizon.fanout_events = !fired)

(* ---------- churn tracker arithmetic ---------- *)

let test_churn_rates () =
  let rates c = Horizon.Churn.rates c in
  let check what expected got =
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) what expected got
  in
  let c = Horizon.Churn.create ~window:8 () in
  check "no samples" (0., 0.) (rates c);
  Horizon.Churn.observe c ~now:0 ~arrivals:0 ~expirations:0;
  check "one sample is not a rate" (0., 0.) (rates c);
  Horizon.Churn.observe c ~now:4 ~arrivals:8 ~expirations:2;
  check "8 arrivals, 2 expirations over 4 ticks" (2.0, 0.5) (rates c);
  (* a same-tick observation replaces, never divides by zero *)
  Horizon.Churn.observe c ~now:4 ~arrivals:12 ~expirations:2;
  check "same-tick resample replaces" (3.0, 0.5) (rates c);
  (* far ahead: everything has left the window, but one older sample is
     kept as baseline so the rate still spans the gap *)
  Horizon.Churn.observe c ~now:20 ~arrivals:20 ~expirations:10;
  check "out-of-window baseline retained" (0.5, 0.5) (rates c)

(* The interpreter's tracker samples at clock movements: two ADVANCEs
   with arrivals in between yield the exact arithmetic rates. *)
let test_interp_churn () =
  let interp = Interp.create () in
  must_ok interp "CREATE TABLE t (uid, v); ADVANCE TO 1;";
  List.iteri
    (fun i ttl -> must_ok interp (insert_sql ~table:"t" i ttl))
    [ Some 3; Some 3; Some 3; Some 3 ];
  must_ok interp "ADVANCE TO 3;";
  let r = Interp.horizon interp in
  Alcotest.(check (float 1e-9)) "arrival rate" 2.0 r.Horizon.arrival_rate;
  Alcotest.(check (float 1e-9)) "expiration rate" 2.0 r.Horizon.expiration_rate;
  Alcotest.(check int) "no watch, no fan-out" 0 r.Horizon.fanout_events

(* ---------- SHOW HORIZON, and the per-table restriction ---------- *)

let test_show_horizon () =
  let interp = Interp.create () in
  must_ok interp
    "CREATE TABLE pol (uid, deg); CREATE TABLE el (uid, deg);\n\
     INSERT INTO pol VALUES (1, 25) EXPIRES 10;\n\
     INSERT INTO pol VALUES (2, 30) EXPIRES 900;\n\
     INSERT INTO el VALUES (3, 25);";
  (match Interp.exec_script interp "SHOW HORIZON;" with
   | [ Ok (Interp.Msg m) ] ->
     List.iter
       (fun sub ->
         Alcotest.(check bool) ("mentions " ^ sub) true
           (let n = String.length sub and len = String.length m in
            let rec go i =
              i + n <= len && (String.sub m i n = sub || go (i + 1))
            in
            go 0))
       [ "horizon now=0"; "table el: live=1 soon=0"; "table pol: live=2";
         "le=+Inf rows=1" ]
   | _ -> Alcotest.fail "SHOW HORIZON did not answer one message");
  (match Interp.exec_script interp "SHOW HORIZON FOR pol;" with
   | [ Ok (Interp.Msg m) ] ->
     Alcotest.(check bool) "restricted to pol" false
       (let sub = "table el" and len = String.length m in
        let n = String.length sub in
        let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
        go 0)
   | _ -> Alcotest.fail "SHOW HORIZON FOR did not answer one message");
  match Interp.exec_script interp "SHOW HORIZON FOR ghost;" with
  | [ Error _ ] -> ()
  | _ -> Alcotest.fail "unknown table accepted"

(* The report renders into well-formed Prometheus families (shared
   hygiene lint), with one histogram series per table. *)
let test_horizon_metrics_page () =
  let interp = Interp.create () in
  must_ok interp
    "CREATE TABLE t (uid, v); INSERT INTO t VALUES (1, 1) EXPIRES 5;";
  let page =
    Expirel_obs.Prometheus.render (Horizon.metrics (Interp.horizon interp))
  in
  Test_obs.check_exposition ~what:"horizon page" page;
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("exposes " ^ sub) true
        (let n = String.length sub and len = String.length page in
         let rec go i =
           i + n <= len && (String.sub page i n = sub || go (i + 1))
         in
         go 0))
    [ "# TYPE expirel_horizon_rows histogram";
      "expirel_horizon_rows_bucket{table=\"t\",le=\"8\"} 1";
      "expirel_horizon_fanout_events 0";
      "expirel_churn_rate{kind=\"arrival\"}" ]

let suite =
  [ forecast_matches_advance;
    merge_matches_union;
    forecast_equals_delivered;
    Alcotest.test_case "merge rejects mismatched buckets" `Quick
      test_merge_rejects_mismatched_buckets;
    Alcotest.test_case "churn tracker arithmetic" `Quick test_churn_rates;
    Alcotest.test_case "interpreter churn rates" `Quick test_interp_churn;
    Alcotest.test_case "SHOW HORIZON rendering and FOR filter" `Quick
      test_show_horizon;
    Alcotest.test_case "horizon metrics page hygiene" `Quick
      test_horizon_metrics_page ]
