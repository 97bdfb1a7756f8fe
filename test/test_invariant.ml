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

(* A constraint as the interpreter keeps it: its query's entry, named
   "c", in a registry of its own. *)
let registry db expr =
  let subs = Subscription.create db in
  Subscription.subscribe subs ~name:"c" (Planner.plan ~db expr);
  subs

(* Whether [bounds] turn violated at an instant whose events took the
   live rows from [before] to [after]. *)
let turns bounds ~before ~after =
  Invariant.violated bounds after && not (Invariant.violated bounds before)

(* The first transition into violation before [horizon], as a string,
   from a replay of the entry that commits nothing, as SHOW CONSTRAINTS
   replays it: none for a constraint violated now. *)
let next_violation subs bounds ~horizon =
  let found = ref None in
  ignore
    (Subscription.forecast_events subs ~until:(Time.pred (fin horizon))
       ~count:(fun _ at ~before ~after ->
         if turns bounds ~before ~after then found := Some (Time.to_string at);
         not (Invariant.violated bounds before || Invariant.violated bounds after))
      : int);
  !found

(* The transitions a clock move to [to_] reports for the entry under
   each of [bounds], oldest first, with the cardinality then. *)
let advance subs ~to_ bounds =
  let found = Array.make (List.length bounds) [] in
  Subscription.deliver_until subs to_ ~count:(fun _ at ~before ~after ->
      List.iteri
        (fun i b -> if turns b ~before ~after then found.(i) <- (at, after) :: found.(i))
        bounds;
      true);
  List.map List.rev (Array.to_list found)

let cardinality subs = Subscription.rows subs "c"

(* What the interpreter's write path does with a registry: read the
   written row's prior texp, apply the record, feed it. *)
let write_through subs db record =
  let before =
    match record with
    | Wal.Insert { table; tuple; _ } | Wal.Delete { table; tuple } ->
      Table.texp_of (Database.table_exn db table) tuple
    | Wal.Create_table _ | Wal.Drop_table _ | Wal.Advance _ -> None
  in
  Database.apply db record;
  Subscription.write subs ~before record

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
  let senior = registry db seniors and roster = registry db (Algebra.base "oncall") in
  Alcotest.(check bool) "nothing violated now" false
    (Invariant.violated (at_least 2) (cardinality senior));
  (* The engine knows the future: senior coverage breaks at 10, the
     roster empties at 40. *)
  Alcotest.(check (option string)) "senior gap predicted" (Some "10")
    (next_violation senior (at_least 2) ~horizon:100);
  Alcotest.(check (option string)) "roster gap predicted" (Some "40")
    (next_violation roster (at_least 1) ~horizon:100);
  Alcotest.(check (option string)) "horizon cuts off" None
    (next_violation roster (at_least 1) ~horizon:30)

let test_topping_up_removes_violation () =
  let db = setup () in
  let senior = registry db seniors in
  (* Act on the prediction: renew operator 1's shift before time 10. *)
  write_through senior db
    (Wal.Insert { table = "oncall"; tuple = Tuple.ints [ 1; 1 ]; texp = fin 50 });
  Alcotest.(check (option string)) "violation postponed" (Some "25")
    (next_violation senior (at_least 2) ~horizon:100)

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
  let n = cardinality (registry db seniors) in
  Alcotest.(check int) "cardinality reported" 2 n;
  Alcotest.(check bool) "violated now" true (Invariant.violated (at_most 1) n);
  (* A difference can grow by expiration, entering a max violation. *)
  let tbl = Database.create_table db ~name:"ack" ~columns:[ "op"; "level" ] in
  Table.insert tbl (Tuple.ints [ 3; 2 ]) ~texp:(fin 5);
  Alcotest.(check (option string)) "growth into violation predicted" (Some "5")
    (next_violation
       (registry db Algebra.(diff (base "oncall") (base "ack")))
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
  (* A MIN above the MAX holds at no cardinality: refused, not read as
     violated at every instant. *)
  (match
     Interp.exec_sql t "CREATE CONSTRAINT x ON SELECT op FROM oncall MIN 5 MAX 2"
   with
   | Error e ->
     Alcotest.(check string) "crossed bounds refused" "Invariant: MIN 5 exceeds MAX 2" e
   | Ok _ -> Alcotest.fail "MIN above MAX accepted");
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
        (* the next violation is a transition out of a valid state; an
           already-violated constraint has none to find *)
      else
        let brute =
          List.find_opt bad (List.init (horizon - 1) (fun i -> i + 1))
        in
        Option.map string_of_int brute
        = next_violation (registry db expr) (at_least bound) ~horizon)

(* Property: the transitions a clock move reports — for every pairing of
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
      let subs = registry db expr in
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
      let cardinality = cardinality subs in
      List.for_all2
        (fun bounds transitions ->
          let bad i = Invariant.violated bounds counts.(i) in
          let brute =
            List.filter_map
              (fun i ->
                if bad i && not (bad (i - 1)) then Some (fin (start + i), counts.(i))
                else None)
              (List.init span (fun i -> i + 1))
          in
          cardinality = counts.(0) && transitions = brute)
        all_bounds
        (advance subs ~to_:(fin (start + span)) all_bounds))

(* The oracle a constraint's entry answers to: its plan run afresh at
   the clock, then at each instant in ]clock, to_] at which a row of the
   answer expires or [texp(e)] forces a refresh (a fresh run at that
   instant), the answer's rows counted whole and both bounds checked.
   [first] asks only for the next violation of a constraint that holds
   now: none when it is violated already. *)
type forecast = {
  cardinality : int;
  transitions : (Time.t * int) list;
}

let forecast ~db compiled bounds ~to_ ~first =
  let run tau = Executor.run ~tau ~db compiled in
  let rec walk (r : Eval.result) was found =
    let at = Time.min (Relation.min_texp r.Eval.relation) r.Eval.texp in
    if Time.is_infinite at || Time.(at > to_) || (first && found <> []) then List.rev found
    else
      let r =
        if Time.(r.Eval.texp <= at) then run at
        else { r with Eval.relation = Relation.exp at r.Eval.relation }
      in
      let n = Relation.cardinal r.Eval.relation in
      let bad = Invariant.violated bounds n in
      walk r bad (if bad && not was then (at, n) :: found else found)
  in
  let result = run (Database.now db) in
  let cardinality = Relation.cardinal result.Eval.relation in
  let was = Invariant.violated bounds cardinality in
  { cardinality; transitions = (if first && was then [] else walk result was []) }

(* A step of the law below, on the table [R1], [S1], [R2], [S2] or [R3]
   it names: a write through the registry (an insert, a delete or a
   re-dating of the k-th live row, mod the count), an ADVANCE by a hop
   or a TICK 1, or a snapshot: the k-th live row deleted under the
   registry, which then reseeds its entries. *)
type step =
  | Insert of string * Tuple.t * int  (* ttl *)
  | Delete of string * int
  | Redate of string * int * int  (* ttl *)
  | Advance of int
  | Tick
  | Snapshot of string * int

let step_gen =
  let open QCheck2.Gen in
  let table = oneofl [ ("R1", 1); ("S1", 1); ("R2", 2); ("S2", 2); ("R3", 3) ] in
  frequency
    [ (2,
       let* name, arity = table in
       map2 (fun tuple ttl -> Insert (name, tuple, ttl)) (Generators.tuple ~arity)
         (int_range 1 12));
      (1, map2 (fun (name, _) k -> Delete (name, k)) table nat);
      (1, map3 (fun (name, _) k ttl -> Redate (name, k, ttl)) table nat (int_range 1 12));
      (2, map (fun hop -> Advance hop) (int_range 0 8));
      (1, return Tick);
      (1, map2 (fun (name, _) k -> Snapshot (name, k)) table nat) ]

(* Property: over random tables and interleaved writes, re-datings,
   clock moves and snapshot reseeds, each clock move reports for the
   constraint's entry — under every pairing of a MIN from 1 to 3 and a
   MAX of 1, 3 or 6 (or none) — exactly the transitions and the
   cardinality the oracle computes from a fresh run of the plan. *)
let prop_entry_matches_forecast =
  Generators.qtest "constraint entries = fresh-run forecast" ~count:150
    (QCheck2.Gen.pair
       (QCheck2.Gen.frequency
          [ (4, Generators.expr_and_env_or_nested_difference ());
            (1, QCheck2.Gen.pair Generators.grouped_count Generators.env_bindings) ])
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 12) step_gen))
    (fun ((expr, bindings), steps) ->
      let db = load bindings in
      let plan = Planner.plan ~db expr in
      let subs = registry db expr in
      let all_bounds =
        List.concat_map
          (fun min_rows ->
            List.filter_map
              (fun max_rows ->
                let bounds = { Invariant.min_rows; max_rows } in
                match Invariant.check_bounds bounds with
                | () when min_rows <> None || max_rows <> None -> Some bounds
                | () -> None
                | exception Invalid_argument _ -> None)
              [ None; Some 1; Some 3; Some 6 ])
          [ None; Some 1; Some 2; Some 3 ]
      in
      let kth table k =
        match Relation.to_list (Database.snapshot db table) with
        | [] -> None
        | rows -> Some (List.nth rows (k mod List.length rows))
      in
      let move to_ =
        let expected =
          List.map (fun bounds -> forecast ~db plan bounds ~to_ ~first:false) all_bounds
        in
        let cardinality = cardinality subs in
        let reported = advance subs ~to_ all_bounds in
        Database.apply db (Wal.Advance to_);
        Subscription.write subs ~before:None (Wal.Advance to_);
        List.for_all2
          (fun f transitions -> f.cardinality = cardinality && f.transitions = transitions)
          expected reported
      in
      List.for_all
        (fun step ->
          let now = Database.now db in
          match step with
          | Insert (table, tuple, ttl) ->
            write_through subs db (Wal.Insert { table; tuple; texp = Time.add now (fin ttl) });
            true
          | Delete (table, k) ->
            Option.iter
              (fun (tuple, _) -> write_through subs db (Wal.Delete { table; tuple }))
              (kth table k);
            true
          | Redate (table, k, ttl) ->
            Option.iter
              (fun (tuple, _) ->
                write_through subs db
                  (Wal.Insert { table; tuple; texp = Time.add now (fin ttl) }))
              (kth table k);
            true
          | Advance hop -> move (Time.add now (fin hop))
          | Tick -> move (Time.add now (fin 1))
          | Snapshot (table, k) ->
            Option.iter
              (fun (tuple, _) -> Database.apply db (Wal.Delete { table; tuple }))
              (kth table k);
            Subscription.reseed subs;
            true)
        steps)

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
    prop_advance_matches_brute_force;
    prop_entry_matches_forecast ]
