open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx

let fin = Time.of_int

(* An on-call roster: operators with shift-end expiration times. *)
let setup () =
  let db = Database.create () in
  let tbl = Database.create_table db ~name:"oncall" ~columns:[ "op"; "level" ] in
  List.iter
    (fun (vs, e) -> Table.insert tbl (Tuple.ints vs) ~texp:(fin e))
    [ [ 1; 1 ], 10; [ 2; 1 ], 25; [ 3; 2 ], 40 ];
  db

let seniors = Algebra.(select (Predicate.eq_const 2 (Value.int 1)) (base "oncall"))
let at_least n = { Invariant.min_rows = Some n; max_rows = None }
let at_most n = { Invariant.min_rows = None; max_rows = Some n }

(* The first transition into violation before [horizon], as a string. *)
let next_violation db expr bounds ~horizon =
  match
    (Invariant.forecast ~db (Planner.plan ~db expr) bounds
       ~to_:(Time.pred (fin horizon)) ~first:true)
      .Invariant.transitions
  with
  | (at, _) :: _ -> Some (Time.to_string at)
  | [] -> None

let cardinality db expr bounds =
  (Invariant.forecast ~db (Planner.plan ~db expr) bounds
     ~to_:(Database.now db) ~first:true)
    .Invariant.cardinality

(* The roster as an interpreter session, for the registry's own cases. *)
let session () =
  let t = Interp.create () in
  List.iter
    (fun sql ->
      match Interp.exec_sql t sql with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" sql e)
    [ "CREATE TABLE oncall (op, level)";
      "INSERT INTO oncall VALUES (1, 1) EXPIRES 10";
      "INSERT INTO oncall VALUES (2, 1) EXPIRES 25";
      "INSERT INTO oncall VALUES (3, 2) EXPIRES 40";
      "CREATE CONSTRAINT two_seniors ON SELECT op FROM oncall WHERE level = 1 \
       MIN 2";
      "CREATE CONSTRAINT any_oncall ON SELECT op FROM oncall MIN 1" ];
  t

let message t sql =
  match Interp.exec_sql t sql with
  | Ok (Interp.Msg m) -> m
  | Ok (Interp.Rows _) -> Alcotest.failf "%s: rows" sql
  | Error e -> Alcotest.failf "%s: %s" sql e

let test_prediction () =
  let db = setup () in
  Alcotest.(check bool) "nothing violated now" false
    (Invariant.violated (at_least 2) (cardinality db seniors (at_least 2)));
  (* The engine knows the future: senior coverage breaks at 10, the
     roster empties at 40. *)
  Alcotest.(check (option string)) "senior gap predicted" (Some "10")
    (next_violation db seniors (at_least 2) ~horizon:100);
  Alcotest.(check (option string)) "roster gap predicted" (Some "40")
    (next_violation db (Algebra.base "oncall") (at_least 1) ~horizon:100);
  Alcotest.(check (option string)) "horizon cuts off" None
    (next_violation db (Algebra.base "oncall") (at_least 1) ~horizon:30)

let test_topping_up_removes_violation () =
  let db = setup () in
  (* Act on the prediction: renew operator 1's shift before time 10. *)
  Database.insert db "oncall" (Tuple.ints [ 1; 1 ]) ~texp:(fin 50);
  Alcotest.(check (option string)) "violation postponed" (Some "25")
    (next_violation db seniors (at_least 2) ~horizon:100)

let test_advance_reports_transitions () =
  let t = session () in
  Alcotest.(check string) "transitions in time order"
    "clock advanced to 50\n\
     CONSTRAINT VIOLATED: two_seniors at 10 (1 rows)\n\
     CONSTRAINT VIOLATED: any_oncall at 40 (0 rows)"
    (message t "ADVANCE TO 50");
  Alcotest.(check string) "still violated now"
    "any_oncall: 0 row(s), min 1 — VIOLATED NOW\n\
     two_seniors: 0 row(s), min 2 — VIOLATED NOW"
    (message t "SHOW CONSTRAINTS")

let test_max_cardinality () =
  let db = setup () in
  (* At most one senior allowed: already broken. *)
  let n = cardinality db seniors (at_most 1) in
  Alcotest.(check int) "cardinality reported" 2 n;
  Alcotest.(check bool) "violated now" true (Invariant.violated (at_most 1) n);
  (* A difference can grow by expiration, entering a max violation. *)
  let tbl = Database.create_table db ~name:"ack" ~columns:[ "op"; "level" ] in
  Table.insert tbl (Tuple.ints [ 3; 2 ]) ~texp:(fin 5);
  Alcotest.(check (option string)) "growth into violation predicted" (Some "5")
    (next_violation db
       Algebra.(diff (base "oncall") (base "ack"))
       (at_most 2) ~horizon:100)

let test_management () =
  let t = session () in
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Invariant: non-positive bound") (fun () ->
      Invariant.check_bounds { Invariant.min_rows = Some 1; max_rows = Some 0 });
  (match
     Interp.exec_sql t "CREATE CONSTRAINT x ON SELECT op FROM oncall MIN 0"
   with
   | Error e ->
     Alcotest.(check string) "bad bound refused" "Invariant: non-positive bound" e
   | Ok _ -> Alcotest.fail "non-positive bound accepted");
  ignore (message t "CREATE CONSTRAINT x ON SELECT op FROM oncall MIN 1");
  (match
     Interp.exec_sql t "CREATE CONSTRAINT x ON SELECT op FROM oncall MIN 1"
   with
   | Error e -> Alcotest.(check string) "duplicate" "constraint x exists" e
   | Ok _ -> Alcotest.fail "duplicate accepted");
  Alcotest.(check string) "remove" "constraint x dropped"
    (message t "DROP CONSTRAINT x");
  match Interp.exec_sql t "DROP CONSTRAINT x" with
  | Error e -> Alcotest.(check string) "remove twice" "unknown constraint x" e
  | Ok _ -> Alcotest.fail "second drop accepted"

let load bindings =
  let db = Database.create () in
  List.iter
    (fun (name, r) ->
      let columns =
        List.init (Relation.arity r) (fun i -> Printf.sprintf "c%d" i)
      in
      let tbl = Database.create_table db ~name ~columns in
      Relation.iter (fun t texp -> Table.insert tbl t ~texp) r)
    bindings;
  db

let fresh_cardinality db expr tau =
  Relation.cardinal
    (Eval.relation_at
       ~env:(fun name ->
         Option.map (fun tb -> Table.snapshot tb ~tau:(fin tau))
           (Database.table db name))
       ~tau:(fin tau) expr)

(* Property: the predicted violation time is exactly the first sampled
   time at which a fresh evaluation violates. *)
let prop_prediction_matches_brute_force =
  Generators.qtest "next_violation = brute-force first bad time" ~count:150
    (QCheck2.Gen.pair (Generators.expr_and_env_or_nested_difference ()) (QCheck2.Gen.int_range 1 4))
    (fun ((expr, bindings), bound) ->
      let db = load bindings in
      let horizon = 40 in
      let bad tau = fresh_cardinality db expr tau < bound in
      if bad 0 then true
        (* a forecast asked with [~first] is about transitions out of a
           valid state; an already-violated constraint has none to find *)
      else
        let brute =
          List.find_opt bad (List.init (horizon - 1) (fun i -> i + 1))
        in
        Option.map string_of_int brute
        = next_violation db expr (at_least bound) ~horizon)

(* Property: the transitions a forecast reports — for every pairing of
   a MIN bound and a MAX bound from 1 to 6 (or none), each constraint
   carrying both — are exactly the ticks in ]from, target] at which a
   fresh naive evaluation turns violated, with the cardinality then. *)
let prop_advance_matches_brute_force =
  Generators.qtest "advance = brute-force per-tick transitions" ~count:150
    (QCheck2.Gen.triple
       (Generators.expr_and_env_or_nested_difference ()) (QCheck2.Gen.int_range 0 5)
       (QCheck2.Gen.int_range 0 30))
    (fun ((expr, bindings), start, span) ->
      let db = load bindings in
      Database.advance_to db (fin start);
      let plan = Planner.plan ~db expr in
      let bound_choices = None :: List.map Option.some [ 1; 2; 3; 4; 5; 6 ] in
      let all_bounds =
        List.concat_map
          (fun min_rows ->
            List.filter_map
              (fun max_rows ->
                if min_rows = None && max_rows = None then None
                else Some { Invariant.min_rows; max_rows })
              bound_choices)
          bound_choices
      in
      let counts =
        Array.init (span + 1) (fun i -> fresh_cardinality db expr (start + i))
      in
      List.for_all
        (fun bounds ->
          let bad i = Invariant.violated bounds counts.(i) in
          let brute =
            List.filter_map
              (fun i ->
                if bad i && not (bad (i - 1)) then Some (fin (start + i), counts.(i))
                else None)
              (List.init span (fun i -> i + 1))
          in
          let { Invariant.cardinality; transitions } =
            Invariant.forecast ~db plan bounds ~to_:(fin (start + span))
              ~first:false
          in
          cardinality = counts.(0) && transitions = brute)
        all_bounds)

let suite =
  [ Alcotest.test_case "violations predicted ahead of time" `Quick test_prediction;
    Alcotest.test_case "renewals postpone predicted violations" `Quick
      test_topping_up_removes_violation;
    Alcotest.test_case "advance reports transitions in order" `Quick
      test_advance_reports_transitions;
    Alcotest.test_case "max cardinality and growing differences" `Quick
      test_max_cardinality;
    Alcotest.test_case "registry management" `Quick test_management;
    prop_prediction_matches_brute_force;
    prop_advance_matches_brute_force ]
