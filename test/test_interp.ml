open Expirel_core
open Expirel_sqlx

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let exec t sql =
  match Interp.exec_sql t sql with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "%S failed: %s" sql msg

let expect_error t sql =
  match Interp.exec_sql t sql with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected %S to fail" sql

let rows = function
  | Interp.Rows { relation; _ } -> relation
  | Interp.Msg m -> Alcotest.failf "expected rows, got message %S" m

let setup_figure1 () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE pol (uid, deg)";
      "CREATE TABLE el (uid, deg)";
      "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
      "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
      "INSERT INTO pol VALUES (3, 35) EXPIRES 10";
      "INSERT INTO el VALUES (1, 75) EXPIRES 5";
      "INSERT INTO el VALUES (2, 85) EXPIRES 3";
      "INSERT INTO el VALUES (4, 90) EXPIRES 2" ];
  t

let test_end_to_end_figure2 () =
  let t = setup_figure1 () in
  Alcotest.(check int) "pi_2(Pol) at 0 has 2 rows" 2
    (Relation.cardinal (rows (exec t "SELECT deg FROM pol")));
  ignore (exec t "ADVANCE TO 10");
  let r = rows (exec t "SELECT deg FROM pol") in
  Alcotest.(check int) "at 10 one row" 1 (Relation.cardinal r);
  Alcotest.(check bool) "it is <25>" true (Relation.mem (Tuple.ints [ 25 ]) r)

let test_join_query () =
  let t = setup_figure1 () in
  Alcotest.(check int) "join at 0" 2
    (Relation.cardinal
       (rows (exec t "SELECT * FROM pol JOIN el ON pol.uid = el.uid")));
  ignore (exec t "ADVANCE TO 3");
  Alcotest.(check int) "join at 3" 1
    (Relation.cardinal
       (rows (exec t "SELECT * FROM pol JOIN el ON pol.uid = el.uid")))

let test_histogram_view_lifecycle () =
  let t = setup_figure1 () in
  (match exec t "CREATE VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg" with
   | Interp.Msg m ->
     Alcotest.(check bool) "reports texp(e) = 10" true
       (string_contains m "texp(e) = 10")
   | Interp.Rows _ -> Alcotest.fail "expected message");
  (match exec t "SHOW VIEW hist" with
   | Interp.Rows { relation; recomputed; _ } ->
     Alcotest.(check int) "two rows" 2 (Relation.cardinal relation);
     Alcotest.(check bool) "no recompute yet" false recomputed
   | Interp.Msg _ -> Alcotest.fail "rows");
  ignore (exec t "ADVANCE TO 12");
  (match exec t "SHOW VIEW hist" with
   | Interp.Rows { relation; recomputed; _ } ->
     Alcotest.(check bool) "auto-recomputed" true recomputed;
     Alcotest.(check bool) "fresh contents <25,1>" true
       (Relation.mem (Tuple.ints [ 25; 1 ]) relation);
     Alcotest.(check int) "one row" 1 (Relation.cardinal relation)
   | Interp.Msg _ -> Alcotest.fail "rows")

let test_monotonic_view_never_recomputes () =
  let t = setup_figure1 () in
  (match exec t "CREATE VIEW j AS SELECT pol.uid FROM pol JOIN el ON pol.uid = el.uid" with
   | Interp.Msg m ->
     Alcotest.(check bool) "monotonic reported" true
       (string_contains m "monotonic: never recomputes")
   | Interp.Rows _ -> Alcotest.fail "message");
  ignore (exec t "ADVANCE TO 20");
  match exec t "SHOW VIEW j" with
  | Interp.Rows { relation; recomputed; _ } ->
    Alcotest.(check bool) "served from materialisation" false recomputed;
    Alcotest.(check int) "empty by expiration" 0 (Relation.cardinal relation)
  | Interp.Msg _ -> Alcotest.fail "rows"

let test_except_view () =
  let t = setup_figure1 () in
  ignore (exec t "CREATE VIEW d AS SELECT uid FROM pol EXCEPT SELECT uid FROM el");
  ignore (exec t "ADVANCE TO 5");
  match exec t "SHOW VIEW d" with
  | Interp.Rows { relation; recomputed; _ } ->
    Alcotest.(check bool) "recomputed (texp was 3)" true recomputed;
    Alcotest.(check int) "three rows at 5" 3 (Relation.cardinal relation)
  | Interp.Msg _ -> Alcotest.fail "rows"

let test_ttl_and_delete () =
  let t = Interp.create () in
  ignore (exec t "CREATE TABLE s (sid, uid)");
  ignore (exec t "ADVANCE TO 100");
  ignore (exec t "INSERT INTO s VALUES (1, 7) TTL 30");
  ignore (exec t "INSERT INTO s VALUES (2, 8) TTL 5");
  ignore (exec t "ADVANCE TO 110");
  Alcotest.(check int) "ttl 5 expired" 1
    (Relation.cardinal (rows (exec t "SELECT * FROM s")));
  (match exec t "DELETE FROM s WHERE uid = 7" with
   | Interp.Msg m -> Alcotest.(check string) "deleted" "1 tuple(s) deleted" m
   | Interp.Rows _ -> Alcotest.fail "message");
  Alcotest.(check int) "empty" 0 (Relation.cardinal (rows (exec t "SELECT * FROM s")))

(* DELETE picks its victims through the access path (an index for
   [sid = k] and ranges, a scan otherwise): it must delete exactly the
   live rows the predicate accepts — under the lazy policy never an
   expired-but-unvacuumed row, which must not be counted either — and a
   durable replay of the log must reproduce the resulting state. *)
let test_delete_victims () =
  let cases =
    [ "WHERE sid = 3", (fun sid _ _ -> sid = 3);
      "WHERE sid = 99", (fun _ _ _ -> false);
      "WHERE uid < 3", (fun _ uid _ -> uid < 3);
      "WHERE uid >= 2 AND uid <= 3", (fun _ uid _ -> uid >= 2 && uid <= 3);
      "WHERE note = 1", (fun _ _ note -> note = 1);
      "WHERE uid = 2 AND note = 0", (fun _ uid note -> uid = 2 && note = 0);
      "", (fun _ _ _ -> true) ]
  in
  List.iter
    (fun policy ->
      List.iter
        (fun (where, accepts) ->
          let name =
            Printf.sprintf "%s DELETE %s"
              (match policy with
               | Expirel_storage.Database.Eager -> "eager"
               | Lazy -> "lazy")
              where
          in
          let dir = Filename.temp_dir "expirel" "delete" in
          Fun.protect
            ~finally:(fun () ->
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir);
              Sys.rmdir dir)
            (fun () ->
              let store = Expirel_storage.Durable.open_dir ~policy dir in
              let t = Interp.create ~store () in
              ignore (exec t "CREATE TABLE s (sid, uid, note)");
              ignore (exec t "CREATE INDEX ON s (sid)");
              ignore (exec t "CREATE INDEX ON s (uid)");
              for sid = 0 to 39 do
                ignore
                  (exec t
                     (Printf.sprintf "INSERT INTO s VALUES (%d, %d, %d) TTL %d" sid
                        (sid mod 5) (sid mod 2) (1 + (sid * 7 mod 20))))
              done;
              ignore (exec t "ADVANCE TO 8");
              let db = Interp.database t in
              let table = Expirel_storage.Database.table_exn db "s" in
              let physical = Expirel_storage.Table.physical_count table in
              let live = Expirel_storage.Database.snapshot db "s" in
              let ints tuple =
                match Tuple.to_list tuple with
                | [ Value.Int a; Value.Int b; Value.Int c ] -> a, b, c
                | _ -> Alcotest.fail "row shape"
              in
              let victims =
                Relation.filter
                  (fun tuple _ -> let a, b, c = ints tuple in accepts a b c)
                  live
              in
              let n = Relation.cardinal victims in
              (match exec t ("DELETE FROM s " ^ where) with
               | Interp.Msg m ->
                 Alcotest.(check string) (name ^ ": count")
                   (Printf.sprintf "%d tuple(s) deleted" n) m
               | _ -> Alcotest.fail "message");
              Alcotest.(check bool) (name ^ ": survivors") true
                (Relation.equal
                   (Expirel_storage.Database.snapshot db "s")
                   (Relation.filter
                      (fun tuple _ -> not (Relation.mem tuple victims))
                      live));
              Alcotest.(check int) (name ^ ": expired rows untouched")
                (physical - n) (Expirel_storage.Table.physical_count table);
              let reopened = Expirel_storage.Durable.open_dir ~policy dir in
              Alcotest.(check bool) (name ^ ": replay") true
                (Relation.equal
                   (Expirel_storage.Database.snapshot db "s")
                   (Expirel_storage.Database.snapshot
                      (Expirel_storage.Durable.database reopened) "s"));
              Expirel_storage.Durable.close reopened;
              Expirel_storage.Durable.close store))
        cases)
    [ Expirel_storage.Database.Eager; Expirel_storage.Database.Lazy ]

let test_errors () =
  let t = Interp.create () in
  expect_error t "SELECT a FROM missing";
  expect_error t "INSERT INTO missing VALUES (1)";
  ignore (exec t "CREATE TABLE t (a)");
  expect_error t "CREATE TABLE t (a)";
  expect_error t "INSERT INTO t VALUES (1, 2)";
  ignore (exec t "ADVANCE TO 5");
  expect_error t "INSERT INTO t VALUES (1) EXPIRES 3";
  expect_error t "ADVANCE TO 1";
  expect_error t "SHOW VIEW missing";
  expect_error t "SELECT nonsense FROM t WHERE";
  (* Execution continues after failures inside scripts. *)
  let results = Interp.exec_script t "BROKEN; SHOW NOW;" in
  Alcotest.(check int) "parse error aborts the script" 1 (List.length results);
  let results = Interp.exec_script t "SELECT x FROM t; SHOW NOW;" in
  Alcotest.(check int) "semantic error does not" 2 (List.length results);
  (match results with
   | [ Error _; Ok (Interp.Msg "5") ] -> ()
   | _ -> Alcotest.fail "expected error then clock")

let test_at_queries () =
  let t = setup_figure1 () in
  (* Query the known future: evaluate the figure-1 data as of time 10. *)
  Alcotest.(check int) "future projection has one row" 1
    (Relation.cardinal (rows (exec t "SELECT deg FROM pol AT 10")));
  Alcotest.(check int) "present unchanged" 2
    (Relation.cardinal (rows (exec t "SELECT deg FROM pol")));
  ignore (exec t "ADVANCE TO 8");
  expect_error t "SELECT deg FROM pol AT 5"

let test_sql_triggers () =
  let t = setup_figure1 () in
  (match exec t "CREATE TRIGGER audit ON el" with
   | Interp.Msg m -> Alcotest.(check string) "created" "trigger audit on el created" m
   | Interp.Rows _ -> Alcotest.fail "message");
  ignore (exec t "ADVANCE TO 4");
  (match exec t "SHOW TRIGGERS" with
   | Interp.Msg log ->
     Alcotest.(check bool) "el expirations logged" true
       (string_contains log "audit: el<4, 90> expired at 2"
        && string_contains log "audit: el<2, 85> expired at 3");
     Alcotest.(check bool) "pol not subscribed" false (string_contains log "pol")
   | Interp.Rows _ -> Alcotest.fail "log");
  ignore (exec t "DROP TRIGGER audit");
  ignore (exec t "ADVANCE TO 20");
  (match exec t "SHOW TRIGGERS" with
   | Interp.Msg log ->
     Alcotest.(check bool) "no new firings after drop" false
       (string_contains log "expired at 5")
   | Interp.Rows _ -> Alcotest.fail "log")

(* SHOW TRIGGERS keeps the newest 1 000 firings, in firing order, and
   says how many older ones it dropped. *)
let test_trigger_log_bounded () =
  let t = Interp.create () in
  ignore (exec t "CREATE TABLE s (k)");
  ignore (exec t "CREATE TRIGGER audit ON s");
  let firings = 1_000 + 5 in
  for k = 1 to firings do
    ignore (exec t (Printf.sprintf "INSERT INTO s VALUES (%d) EXPIRES %d" k (k + 1)))
  done;
  ignore (exec t (Printf.sprintf "ADVANCE TO %d" (firings + 2)));
  match exec t "SHOW TRIGGERS" with
  | Interp.Msg log ->
    let lines = String.split_on_char '\n' log in
    Alcotest.(check int) "a count line and the kept firings" 1_001 (List.length lines);
    Alcotest.(check string) "the count line" "(5 older firing(s) dropped)" (List.hd lines);
    Alcotest.(check string) "the oldest kept" "audit: s<6> expired at 7" (List.nth lines 1);
    Alcotest.(check string) "the newest" "audit: s<1005> expired at 1006"
      (List.nth lines 1_000)
  | Interp.Rows _ -> Alcotest.fail "log"

let test_maintained_view () =
  let t = setup_figure1 () in
  ignore (exec t "CREATE MAINTAINED VIEW hist AS \
                  SELECT deg, COUNT(*) FROM pol GROUP BY deg");
  (* Updates flow into the view immediately, unlike a plain view. *)
  ignore (exec t "INSERT INTO pol VALUES (7, 25) EXPIRES 40");
  (match exec t "SHOW VIEW hist" with
   | Interp.Rows { relation; recomputed; _ } ->
     Alcotest.(check bool) "sees the new tuple" true
       (Relation.mem (Tuple.ints [ 25; 3 ]) relation);
     Alcotest.(check bool) "never reports recompute" false recomputed
   | Interp.Msg _ -> Alcotest.fail "rows");
  (* And the clock. *)
  ignore (exec t "ADVANCE TO 16");
  (match exec t "SHOW VIEW hist" with
   | Interp.Rows { relation; _ } ->
     Alcotest.(check bool) "only <7,25> left, count 1" true
       (Relation.mem (Tuple.ints [ 25; 1 ]) relation);
     Alcotest.(check int) "one group" 1 (Relation.cardinal relation)
   | Interp.Msg _ -> Alcotest.fail "rows");
  (match exec t "REFRESH VIEW hist" with
   | Interp.Msg m ->
     Alcotest.(check bool) "refresh is a no-op" true
       (string_contains m "always current")
   | Interp.Rows _ -> Alcotest.fail "message");
  expect_error t "CREATE VIEW hist AS SELECT uid FROM pol";
  (match exec t "SHOW VIEWS" with
   | Interp.Msg m ->
     Alcotest.(check bool) "flagged as maintained" true
       (string_contains m "hist (maintained)")
   | Interp.Rows _ -> Alcotest.fail "message")

let test_order_limit_having () =
  let t = setup_figure1 () in
  let listing outcome =
    match outcome with
    | Interp.Rows { listing; _ } ->
      List.map (fun (tuple, _) -> Tuple.to_string tuple) (Lazy.force listing)
    | Interp.Msg m -> Alcotest.failf "expected rows, got %S" m
  in
  Alcotest.(check (list string)) "ORDER BY deg DESC, uid"
    [ "<3, 35>"; "<1, 25>"; "<2, 25>" ]
    (listing (exec t "SELECT uid, deg FROM pol ORDER BY deg DESC, uid"));
  Alcotest.(check (list string)) "LIMIT truncates after ordering"
    [ "<3, 35>" ]
    (listing (exec t "SELECT uid, deg FROM pol ORDER BY deg DESC LIMIT 1"));
  Alcotest.(check (list string)) "HAVING keeps multi-member groups"
    [ "<25, 2>" ]
    (listing (exec t "SELECT deg, COUNT(*) FROM pol GROUP BY deg \
                      HAVING COUNT(*) > 1"));
  Alcotest.(check (list string)) "HAVING on a group column"
    [ "<35, 1>" ]
    (listing (exec t "SELECT deg, COUNT(*) FROM pol GROUP BY deg \
                      HAVING deg > 30"));
  expect_error t "SELECT uid FROM pol WHERE COUNT(*) > 1";
  expect_error t "SELECT uid FROM pol HAVING uid > 1";
  expect_error t "SELECT deg, COUNT(*) FROM pol GROUP BY deg HAVING SUM(uid) > 1";
  expect_error t "SELECT deg, COUNT(*) FROM pol GROUP BY deg HAVING uid > 1";
  expect_error t "SELECT uid FROM pol ORDER BY nonsense"

(* The shared ORDER BY column resolver (Lower.order_by_position): exact
   labels first, then a UNIQUE ".column" suffix for bare names; anything
   ambiguous or absent is an error, never a silent first-match pick. *)
let test_order_by_resolver () =
  let t = setup_figure1 () in
  let expect_error_containing t sql needle =
    match Interp.exec_sql t sql with
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error mentions %S (got %S)" sql needle msg)
        true
        (string_contains msg needle)
    | Ok _ -> Alcotest.failf "expected %S to fail" sql
  in
  let listing outcome =
    match outcome with
    | Interp.Rows { listing; _ } ->
      List.map (fun (tuple, _) -> Tuple.to_string tuple) (Lazy.force listing)
    | Interp.Msg m -> Alcotest.failf "expected rows, got %S" m
  in
  (* Join output labels are qualified (both tables expose uid and deg):
     a qualified reference resolves, position-exactly. *)
  Alcotest.(check (list string)) "qualified ORDER BY on a join"
    [ "<2, 25, 2, 85>"; "<1, 25, 1, 75>" ]
    (listing
       (exec t
          "SELECT * FROM pol JOIN el ON pol.uid = el.uid ORDER BY el.deg DESC"));
  (* A bare name matching several qualified labels is ambiguous — the
     old suffix matchers silently took the first hit. *)
  expect_error_containing t
    "SELECT * FROM pol JOIN el ON pol.uid = el.uid ORDER BY deg" "ambiguous";
  expect_error_containing t
    "SELECT * FROM pol JOIN el ON pol.uid = el.uid ORDER BY uid" "ambiguous";
  (* A projected join keeps qualified labels; a bare name that suffixes
     exactly one of them resolves (here only el.uid survives the
     projection). *)
  Alcotest.(check (list string)) "unique suffix match resolves"
    [ "<25, 2>"; "<25, 1>" ]
    (listing
       (exec t
          "SELECT pol.deg, el.uid FROM pol JOIN el ON pol.uid = el.uid \
           ORDER BY uid DESC"));
  expect_error_containing t "SELECT uid FROM pol ORDER BY nonsense" "unknown";
  expect_error_containing t
    "SELECT * FROM pol JOIN el ON pol.uid = el.uid ORDER BY missing" "unknown";
  (* Qualified references to absent columns are unknown, not suffixed. *)
  expect_error_containing t "SELECT * FROM pol ORDER BY el.deg" "unknown"

let test_sql_constraints () =
  let t = setup_figure1 () in
  (match exec t "CREATE CONSTRAINT coverage ON SELECT uid FROM pol MIN 2" with
   | Interp.Msg m -> Alcotest.(check string) "created" "constraint coverage created" m
   | Interp.Rows _ -> Alcotest.fail "message");
  (match exec t "SHOW CONSTRAINTS" with
   | Interp.Msg m ->
     Alcotest.(check bool) "prediction shown" true
       (string_contains m "coverage: 3 row(s), min 2 — breaks at 10")
   | Interp.Rows _ -> Alcotest.fail "status");
  (* Advancing across the predicted time reports the transition. *)
  (match exec t "ADVANCE TO 20" with
   | Interp.Msg m ->
     Alcotest.(check bool) "violation reported" true
       (string_contains m "CONSTRAINT VIOLATED: coverage at 10")
   | Interp.Rows _ -> Alcotest.fail "advance");
  (match exec t "SHOW CONSTRAINTS" with
   | Interp.Msg m ->
     Alcotest.(check bool) "violated now" true (string_contains m "VIOLATED NOW")
   | Interp.Rows _ -> Alcotest.fail "status");
  ignore (exec t "DROP CONSTRAINT coverage");
  expect_error t "DROP CONSTRAINT coverage";
  (match exec t "SHOW CONSTRAINTS" with
   | Interp.Msg m -> Alcotest.(check string) "empty" "(no constraints)" m
   | Interp.Rows _ -> Alcotest.fail "status");
  expect_error t "CREATE CONSTRAINT bad ON SELECT uid FROM pol MIN 0"

(* A constraint's plan reads its table at every clock move: dropping the
   table under it used to fail every later ADVANCE, TICK and SHOW
   CONSTRAINTS with "unknown relation s" until the constraint went. *)
let test_drop_table_under_constraint () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE s (sid, uid)";
      "INSERT INTO s VALUES (1, 7) EXPIRES 10";
      "CREATE CONSTRAINT c ON SELECT sid FROM s MIN 1" ];
  (match Interp.exec_sql t "DROP TABLE s" with
   | Error msg ->
     Alcotest.(check string) "refusal names the constraint"
       "table s is read by constraint c" msg
   | Ok _ -> Alcotest.fail "DROP TABLE under a constraint succeeded");
  ignore (exec t "ADVANCE TO 5");
  ignore (exec t "TICK 1");
  (match exec t "SHOW CONSTRAINTS" with
   | Interp.Msg m ->
     Alcotest.(check bool) "constraint still evaluates" true
       (string_contains m "c: 1 row(s), min 1 — breaks at 10")
   | Interp.Rows _ -> Alcotest.fail "status");
  ignore (exec t "DROP CONSTRAINT c");
  (match exec t "DROP TABLE s" with
   | Interp.Msg m -> Alcotest.(check string) "dropped" "table s dropped" m
   | Interp.Rows _ -> Alcotest.fail "message");
  ignore (exec t "ADVANCE TO 20")

(* Row 1 of [a EXCEPT (b EXCEPT c)] leaves the result when c's row
   expires at 5 — a refresh drops it, it does not expire — comes back
   when b's row expires at 15 and expires itself at 20. *)
let test_constraint_on_nested_difference () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE a (x)"; "CREATE TABLE b (x)"; "CREATE TABLE c (x)";
      "INSERT INTO a VALUES (1) EXPIRES 20";
      "INSERT INTO b VALUES (1) EXPIRES 15";
      "INSERT INTO c VALUES (1) EXPIRES 5";
      "CREATE CONSTRAINT k ON SELECT x FROM a EXCEPT (SELECT x FROM b \
       EXCEPT SELECT x FROM c) MIN 1" ];
  (match exec t "SHOW CONSTRAINTS" with
   | Interp.Msg m ->
     Alcotest.(check string) "predicted" "k: 1 row(s), min 1 — breaks at 5" m
   | Interp.Rows _ -> Alcotest.fail "status");
  match exec t "ADVANCE TO 30" with
  | Interp.Msg m ->
    Alcotest.(check string) "both transitions"
      "clock advanced to 30\nCONSTRAINT VIOLATED: k at 5 (0 rows)\n\
       CONSTRAINT VIOLATED: k at 20 (0 rows)" m
  | Interp.Rows _ -> Alcotest.fail "message"

(* One refusal names every standing query reading the table, a watch
   as well as a constraint, and the drop goes through once both end. *)
let test_drop_table_under_constraint_and_watch () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE s (sid, uid)";
      "INSERT INTO s VALUES (1, 7) EXPIRES 10";
      "CREATE CONSTRAINT c ON SELECT sid FROM s MIN 1" ];
  (match
     Interp.subscribe t ~name:"w"
       (Parser.parse_statement "SELECT sid FROM s EXCEPT SELECT uid FROM s")
       ignore
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Interp.exec_sql t "DROP TABLE s" with
   | Error msg ->
     Alcotest.(check string) "refusal names both"
       "table s is read by constraint c, subscription w" msg
   | Ok _ -> Alcotest.fail "DROP TABLE under a constraint and a watch succeeded");
  ignore (exec t "DROP CONSTRAINT c");
  (match Interp.exec_sql t "DROP TABLE s" with
   | Error msg ->
     Alcotest.(check string) "the watch alone" "table s is read by subscription w"
       msg
   | Ok _ -> Alcotest.fail "DROP TABLE under a watch succeeded");
  Alcotest.(check bool) "unsubscribed" true (Interp.unsubscribe t "w");
  ignore (exec t "DROP TABLE s");
  ignore (exec t "ADVANCE TO 20")

(* A traced ADVANCE records the standing queries' walk as a [deliver]
   span beside [storage], not inside it, and the watch's events fire
   within it. *)
let test_deliver_span () =
  let t = setup_figure1 () in
  let events = ref 0 in
  (match
     Interp.subscribe t ~name:"w" (Parser.parse_statement "SELECT uid FROM pol")
       (fun _ -> incr events)
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let trace = Expirel_obs.Trace.create () in
  (match Interp.exec ~trace t (Parser.parse_statement "ADVANCE TO 12") with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "both rows expiring at 10 delivered" 2 !events;
  let spans = Expirel_obs.Trace.spans trace in
  let find name =
    match List.find_opt (fun s -> s.Expirel_obs.Trace.name = name) spans with
    | Some s -> s
    | None -> Alcotest.failf "no %s span" name
  in
  let deliver = find "deliver" and storage = find "storage" in
  Alcotest.(check (option int)) "siblings" storage.Expirel_obs.Trace.parent
    deliver.Expirel_obs.Trace.parent;
  Alcotest.(check bool) "delivery before the clock move" true
    (deliver.Expirel_obs.Trace.id < storage.Expirel_obs.Trace.id)

(* A MAINTAINED view reads its table like any standing query: DROP TABLE
   under it is refused and names it between the constraints and the
   subscriptions, and the view keeps serving its row. *)
let test_drop_table_under_maintained_view () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE s (sid)";
      "INSERT INTO s VALUES (1) EXPIRES 10";
      "CREATE MAINTAINED VIEW mv AS SELECT sid FROM s" ];
  (match Interp.exec_sql t "DROP TABLE s" with
   | Error msg ->
     Alcotest.(check string) "refusal names the view" "table s is read by view mv"
       msg
   | Ok _ -> Alcotest.fail "DROP TABLE under a maintained view succeeded");
  ignore (exec t "CREATE CONSTRAINT c ON SELECT sid FROM s MIN 1");
  (match
     Interp.subscribe t ~name:"w" (Parser.parse_statement "SELECT sid FROM s")
       ignore
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Interp.exec_sql t "DROP TABLE s" with
   | Error msg ->
     Alcotest.(check string) "constraints, then views, then subscriptions"
       "table s is read by constraint c, view mv, subscription w" msg
   | Ok _ -> Alcotest.fail "DROP TABLE under three readers succeeded");
  Alcotest.(check int) "the view still serves its row" 1
    (Relation.cardinal (rows (exec t "SHOW VIEW mv")))

(* The write-time feed prices itself: a traced INSERT opens a [deliver]
   span inside [storage] only when a standing query reads the table. *)
let test_write_deliver_span () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE s (sid)"; "CREATE TABLE other (x)" ];
  let traced sql =
    let trace = Expirel_obs.Trace.create () in
    (match Interp.exec ~trace t (Parser.parse_statement sql) with
     | Ok _ -> ()
     | Error e -> Alcotest.fail e);
    List.map
      (fun s -> (s.Expirel_obs.Trace.name, s))
      (Expirel_obs.Trace.spans trace)
  in
  Alcotest.(check bool) "no standing query: no deliver span" false
    (List.mem_assoc "deliver" (traced "INSERT INTO s VALUES (1) EXPIRES 10"));
  let events = ref 0 in
  (match
     Interp.subscribe t ~name:"w" (Parser.parse_statement "SELECT sid FROM s")
       (fun _ -> incr events)
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "a write no watch reads: no deliver span" false
    (List.mem_assoc "deliver" (traced "INSERT INTO other VALUES (1) EXPIRES 10"));
  let spans = traced "INSERT INTO s VALUES (2) EXPIRES 10" in
  Alcotest.(check (option int)) "a watched write: deliver inside storage"
    (Some (List.assoc "storage" spans).Expirel_obs.Trace.id)
    (List.assoc "deliver" spans).Expirel_obs.Trace.parent;
  Alcotest.(check int) "the row appeared" 1 !events

(* Property: under random INSERT/DELETE/ADVANCE streams, every
   MAINTAINED view — a column-preserving selection, a column-dropping
   projection, a join, an EXCEPT and a GROUP BY — shows what its SELECT
   answers, rows and texps, at every step. *)
let maintained_queries =
  [ ("sel", "SELECT x, y FROM a WHERE y < 2");
    ("proj", "SELECT x FROM a");
    ("jn", "SELECT * FROM a JOIN b ON a.x = b.x");
    ("ex", "SELECT x FROM a EXCEPT SELECT x FROM b");
    ("grp", "SELECT x, COUNT(*) FROM a GROUP BY x") ]

let prop_maintained_views_equal_queries =
  let step =
    let open QCheck2.Gen in
    let table = oneofl [ "a"; "b" ] in
    let v = int_range 0 3 in
    frequency
      [ (4,
         map4
           (fun table x y ttl ->
             Printf.sprintf "INSERT INTO %s VALUES (%d, %d) TTL %d" table x y ttl)
           table v v (int_range 1 10));
      (2, map2 (Printf.sprintf "DELETE FROM %s WHERE x = %d") table v);
      (2, map (Printf.sprintf "TICK %d") (int_range 0 4)) ]
  in
  Generators.qtest "maintained views equal their queries" ~count:100
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 25) step)
    (fun steps ->
      let t = Interp.create () in
      List.iter
        (fun sql -> ignore (exec t sql))
        ([ "CREATE TABLE a (x, y)"; "CREATE TABLE b (x, y)";
           "INSERT INTO a VALUES (1, 1) EXPIRES 6";
           "INSERT INTO b VALUES (1, 0) EXPIRES 3" ]
         @ List.map
             (fun (name, q) -> Printf.sprintf "CREATE MAINTAINED VIEW %s AS %s" name q)
             maintained_queries);
      List.for_all
        (fun sql ->
          ignore (exec t sql);
          List.for_all
            (fun (name, q) ->
              Relation.equal (rows (exec t ("SHOW VIEW " ^ name))) (rows (exec t q)))
            maintained_queries)
        steps)

(* The naive oracle's answer to a query at the session's clock: rows,
   per-row texps and texp(e). *)
let naive t sql =
  let db = Interp.database t in
  match Parser.parse_statement sql with
  | Ast.Query { q; _ } ->
    let catalog name =
      Option.map Expirel_storage.Table.columns (Expirel_storage.Database.table db name)
    in
    let { Lower.expr; _ } = Lower.lower_query ~catalog q in
    Eval.run ~env:(Expirel_storage.Database.env db)
      ~tau:(Expirel_storage.Database.now db) expr
  | _ -> Alcotest.failf "not a query: %s" sql

let answers_like_naive t sql =
  match exec t sql with
  | Interp.Rows { relation; texp_e; _ } ->
    let { Eval.relation = expected; texp } = naive t sql in
    Relation.equal relation expected && Time.equal texp_e texp
  | Interp.Msg m -> Alcotest.failf "expected rows, got message %S" m

(* Property: under random streams of writes (new rows and re-dated
   ones), deletes, clock moves, index DDL, raw inserts that bypass
   [Interp.write] and bursts of distinct point queries that evict the
   plan cache, every repeated GROUP BY COUNT — promoted to a standing
   entry after its first plan-cache hit — equals the naive evaluation:
   rows, each row's texp and texp(e), under both policies. *)
let grouped_counts =
  [ "SELECT x, COUNT(*) FROM a GROUP BY x";
    "SELECT y, COUNT(*) FROM a WHERE x < 2 GROUP BY y";
    "SELECT x, COUNT(*) FROM a GROUP BY x HAVING COUNT(*) > 1";
    "SELECT COUNT(*) FROM a GROUP BY y" ]

type standing_step =
  | Sql of string
  | Grouped of string  (* checked against the oracle *)
  | Advance_by of int
  | Raw_insert of int * int * int  (* x, y, ttl *)
  | Burst  (* more distinct point queries than the plan cache holds *)

let prop_standing_counts_equal_naive policy label =
  let step =
    let open QCheck2.Gen in
    let v = int_range 0 3 in
    frequency
      [ (5, map3 (fun x y ttl -> Sql (Printf.sprintf "INSERT INTO a VALUES (%d, %d) TTL %d" x y ttl))
              v v (int_range 1 10));
        (2, map (fun x -> Sql (Printf.sprintf "DELETE FROM a WHERE x = %d" x)) v);
        (1, map (fun y -> Sql (Printf.sprintf "DELETE FROM a WHERE y = %d" y)) v);
        (2, map (fun n -> Sql (Printf.sprintf "TICK %d" n)) (int_range 0 4));
        (1, map (fun n -> Advance_by n) (int_range 0 4));
        (5, map (fun sql -> Grouped sql) (oneofl grouped_counts));
        (1, map (fun sql -> Sql sql) (oneofl [ "CREATE INDEX ON a (x)"; "DROP INDEX ON a (x)" ]));
        (1, map3 (fun x y ttl -> Raw_insert (x, y, ttl)) v v (int_range 1 10));
        (1, return Burst) ]
  in
  Generators.qtest
    (Printf.sprintf "standing GROUP BY COUNT equals naive Eval (%s)" label)
    ~count:100
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 40) step)
    (fun steps ->
      let t = Interp.create ~policy () in
      let db = Interp.database t in
      ignore (exec t "CREATE TABLE a (x, y)");
      List.for_all
        (fun step ->
          let now = Expirel_storage.Database.now db in
          match step with
          | Grouped sql -> answers_like_naive t sql
          | Sql sql ->
            ignore (Interp.exec_sql t sql);
            true
          | Advance_by n ->
            ignore
              (exec t
                 (Printf.sprintf "ADVANCE TO %d"
                    (Option.get (Time.to_int_opt now) + n)));
            true
          | Raw_insert (x, y, ttl) ->
            Expirel_storage.Database.insert db "a" (Tuple.ints [ x; y ])
              ~texp:(Time.add now (Time.of_int ttl));
            true
          | Burst ->
            for k = 0 to 70 do
              ignore (exec t (Printf.sprintf "SELECT x FROM a WHERE y = %d" (100 + k)))
            done;
            true)
        steps)

(* A mutation that bypasses [Interp.write] — a raw [Database.insert] on
   the session's database — never leaves a promoted GROUP BY stale: its
   read sees the table's generation moved and rebuilds. *)
let test_standing_count_after_raw_insert () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE a (x, y)";
      "INSERT INTO a VALUES (1, 1) EXPIRES 5";
      "INSERT INTO a VALUES (1, 2) EXPIRES 9" ];
  let sql = "SELECT x, COUNT(*) FROM a GROUP BY x" in
  Alcotest.(check bool) "first run" true (answers_like_naive t sql);
  Alcotest.(check bool) "promoted" true (answers_like_naive t sql);
  Expirel_storage.Database.insert (Interp.database t) "a" (Tuple.ints [ 1; 3 ])
    ~texp:(Time.of_int 7);
  Alcotest.(check bool) "after a raw insert" true (answers_like_naive t sql);
  Alcotest.(check int) "one standing entry" 1 (fst (Interp.standing_aggregates t))

(* A grouped COUNT kept as per-group state never reruns the executor: an
   INSERT, a DELETE and a TICK under a MAINTAINED view, a watch and a
   promoted GROUP BY consume exactly the batch rows they consume without
   them (the DELETE's own victim lookup), and a promoted read none. *)
let test_standing_count_no_rerun () =
  let session standing =
    let t = Interp.create () in
    List.iter
      (fun sql -> ignore (exec t sql))
      ([ "CREATE TABLE s (sid, uid)"; "CREATE INDEX ON s (sid)" ]
       @ List.init 200 (fun i ->
             Printf.sprintf "INSERT INTO s VALUES (%d, %d) TTL %d" i (i mod 20)
               (1 + (i mod 50))));
    if standing then begin
      ignore
        (exec t "CREATE MAINTAINED VIEW v AS SELECT uid, COUNT(*) FROM s GROUP BY uid");
      (match
         Interp.subscribe t ~name:"w"
           (Parser.parse_statement "SELECT uid, COUNT(*) FROM s WHERE sid > 3 GROUP BY uid")
           ignore
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      ignore (exec t "SELECT uid, COUNT(*) FROM s GROUP BY uid");
      ignore (exec t "SELECT uid, COUNT(*) FROM s GROUP BY uid")
    end;
    t
  in
  let plain = session false and standing = session true in
  let cost t sql =
    let rows () = (Expirel_obs.Vec_stats.snapshot ()).Expirel_obs.Vec_stats.s_rows in
    let before = rows () in
    ignore (exec t sql);
    rows () - before
  in
  List.iter
    (fun sql ->
      Alcotest.(check int) sql (cost plain sql) (cost standing sql))
    [ "INSERT INTO s VALUES (500, 3) TTL 30";
      "INSERT INTO s VALUES (7, 3) TTL 40";
      "DELETE FROM s WHERE sid = 9";
      "TICK 1" ];
  Alcotest.(check int) "a promoted read" 0
    (cost standing "SELECT uid, COUNT(*) FROM s GROUP BY uid");
  Alcotest.(check (pair int int)) "one promoted entry; 20 groups in each of three"
    (1, 60) (Interp.standing_aggregates standing)

let test_render () =
  let t = setup_figure1 () in
  let text = Interp.render (exec t "SELECT deg FROM pol") in
  Alcotest.(check bool) "renders a bordered table" true
    (string_contains text "| texp | deg |")

(* The statement cache's promoted GROUP BY has no listener, so it builds
   no events; a SUBSCRIBE on the same text keeps every event it gets
   without the promoted entry beside it, through writes (new, re-dated
   and deleted rows, a group emptied), TICKs and an ADVANCE past several
   change points. *)
let test_watch_beside_promoted_count () =
  let sql = "SELECT g, COUNT(*) FROM s GROUP BY g" in
  let session promoted =
    let t = Interp.create () in
    let events = ref [] in
    ignore (exec t "CREATE TABLE s (sid, g)");
    List.iter
      (fun (sid, g, ttl) ->
        ignore (exec t (Printf.sprintf "INSERT INTO s VALUES (%d, %d) TTL %d" sid g ttl)))
      [ (1, 1, 3); (2, 1, 6); (3, 2, 2); (4, 2, 9); (5, 3, 4) ];
    let render = function
      | Expirel_exec.Subscription.Row_expired { tuple; at; _ } ->
        Printf.sprintf "-%s@%s" (Tuple.to_string tuple) (Time.to_string at)
      | Expirel_exec.Subscription.Row_appeared { tuple; texp; at; _ } ->
        Printf.sprintf "+%s:%s@%s" (Tuple.to_string tuple) (Time.to_string texp)
          (Time.to_string at)
      | Expirel_exec.Subscription.Refreshed { at; _ } ->
        Printf.sprintf "refresh@%s" (Time.to_string at)
    in
    (match
       Interp.subscribe t ~name:"w" (Parser.parse_statement sql) (fun ev ->
           events := render ev :: !events)
     with
     | Ok () -> ()
     | Error e -> Alcotest.fail e);
    let read () = if promoted then ignore (exec t sql) in
    read ();
    read ();
    List.iter
      (fun stmt -> ignore (exec t stmt); read ())
      [ "INSERT INTO s VALUES (6, 3) TTL 5";
        "TICK 1";
        "INSERT INTO s VALUES (2, 1) TTL 8";
        "DELETE FROM s WHERE sid = 5";
        "DELETE FROM s WHERE sid = 6";
        "TICK 2";
        "ADVANCE TO 9";
        "INSERT INTO s VALUES (7, 4) TTL 2";
        "TICK 3" ];
    (t, List.rev !events)
  in
  let plain, expected = session false and promoted, events = session true in
  Alcotest.(check (pair int int)) "the plain session promotes nothing" (0, 0)
    (Interp.standing_aggregates plain);
  Alcotest.(check int) "the other holds the promoted entry" 1
    (fst (Interp.standing_aggregates promoted));
  Alcotest.(check (list string)) "the watch's events"
    [ "-<3, 1>@0"; "+<3, 2>:4@0"; "-<3, 2>@1"; "+<3, 1>:5@1"; "-<3, 1>@1";
      "-<2, 2>@2"; "refresh@2"; "+<2, 1>:9@2"; "-<1, 2>@3"; "refresh@3";
      "+<1, 1>:9@3"; "-<1, 1>@9"; "-<2, 1>@9"; "+<4, 1>:11@9"; "-<4, 1>@11" ]
    expected;
  Alcotest.(check (list string)) "the same events beside the promoted entry" expected events

(* A trace larger than a ring slot's first buffer — an EXPLAIN ANALYZE
   over a 101-branch UNION, 302 operators — is stored whole: the slot
   grows to fit it and gives back every span. *)
let test_oversized_trace_stored_whole () =
  let t = Interp.create () in
  ignore (exec t "CREATE TABLE big (a, b)");
  for i = 0 to 9 do
    ignore (exec t (Printf.sprintf "INSERT INTO big VALUES (%d, %d) EXPIRES 50" i (i * 2)))
  done;
  let branch i = Printf.sprintf "SELECT a FROM big WHERE b = %d" i in
  let sql = "EXPLAIN ANALYZE " ^ String.concat " UNION " (List.init 101 branch) in
  let trace = Expirel_obs.Trace.create () in
  (match Interp.exec ~trace t (Parser.parse_statement sql) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let spans = Expirel_obs.Trace.spans trace in
  let ops =
    List.filter (fun (s : Expirel_obs.Trace.span) -> String.starts_with ~prefix:"op:" s.name) spans
  in
  Alcotest.(check bool) "at least 300 operator spans" true (List.length ops >= 300);
  let store = Expirel_obs.Trace_store.create ~capacity:2 () in
  Expirel_obs.Trace_store.finish store ~node:"n" ~name:"small" (Expirel_obs.Trace.create ());
  Expirel_obs.Trace_store.finish store ~node:"n" ~name:sql trace;
  Expirel_obs.Trace_store.finish store ~node:"n" ~name:"small again" (Expirel_obs.Trace.create ());
  match Expirel_obs.Trace_store.recent store 2 with
  | [ small; big ] ->
    Alcotest.(check string) "newest first" "small again" small.Expirel_obs.Trace_store.name;
    Alcotest.(check string) "statement text" sql big.Expirel_obs.Trace_store.name;
    Alcotest.(check bool) "every span, equal" true (big.Expirel_obs.Trace_store.spans = spans)
  | entries -> Alcotest.failf "expected 2 entries, got %d" (List.length entries)

let suite =
  [ Alcotest.test_case "figure 2 end to end" `Quick test_end_to_end_figure2;
    Alcotest.test_case "an oversized trace is stored whole" `Quick
      test_oversized_trace_stored_whole;
    Alcotest.test_case "joins" `Quick test_join_query;
    Alcotest.test_case "non-monotonic view recomputes on expiry" `Quick
      test_histogram_view_lifecycle;
    Alcotest.test_case "monotonic view never recomputes" `Quick
      test_monotonic_view_never_recomputes;
    Alcotest.test_case "EXCEPT view over the paper's data" `Quick test_except_view;
    Alcotest.test_case "TTL inserts and deletes" `Quick test_ttl_and_delete;
    Alcotest.test_case "DELETE victims through the access path" `Quick
      test_delete_victims;
    Alcotest.test_case "error handling" `Quick test_errors;
    Alcotest.test_case "AT: querying the known future" `Quick test_at_queries;
    Alcotest.test_case "ORDER BY / LIMIT / HAVING" `Quick test_order_limit_having;
    Alcotest.test_case "ORDER BY column resolver" `Quick test_order_by_resolver;
    Alcotest.test_case "SQL constraints with prediction" `Quick test_sql_constraints;
    Alcotest.test_case "DROP TABLE refused under a constraint" `Quick
      test_drop_table_under_constraint;
    Alcotest.test_case "DROP TABLE names every standing reader" `Quick
      test_drop_table_under_constraint_and_watch;
    Alcotest.test_case "traced ADVANCE records a deliver span" `Quick
      test_deliver_span;
    Alcotest.test_case "constraint on a nested difference" `Quick
      test_constraint_on_nested_difference;
    Alcotest.test_case "SQL-level expiration triggers" `Quick test_sql_triggers;
    Alcotest.test_case "SHOW TRIGGERS keeps the newest 1000 firings" `Quick
      test_trigger_log_bounded;
    Alcotest.test_case "maintained views track updates and time" `Quick
      test_maintained_view;
    Alcotest.test_case "DROP TABLE refused under a maintained view" `Quick
      test_drop_table_under_maintained_view;
    Alcotest.test_case "traced writes price the feed" `Quick
      test_write_deliver_span;
    prop_maintained_views_equal_queries;
    prop_standing_counts_equal_naive Expirel_storage.Database.Eager "eager";
    prop_standing_counts_equal_naive Expirel_storage.Database.Lazy "lazy";
    Alcotest.test_case "a raw insert never leaves a promoted GROUP BY stale"
      `Quick test_standing_count_after_raw_insert;
    Alcotest.test_case "standing GROUP BY COUNT never reruns the executor"
      `Quick test_standing_count_no_rerun;
    Alcotest.test_case "a watch beside a promoted GROUP BY keeps its events"
      `Quick test_watch_beside_promoted_count;
    Alcotest.test_case "rendering" `Quick test_render ]
