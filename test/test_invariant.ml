open Expirel_core
open Expirel_storage
open Expirel_exec

let fin = Time.of_int

(* An on-call roster: operators with shift-end expiration times. *)
let setup () =
  let db = Database.create () in
  let tbl = Database.create_table db ~name:"oncall" ~columns:[ "op"; "level" ] in
  List.iter
    (fun (vs, e) -> Table.insert tbl (Tuple.ints vs) ~texp:(fin e))
    [ [ 1; 1 ], 10; [ 2; 1 ], 25; [ 3; 2 ], 40 ];
  db

(* Constraints hold a plan, planned once when registered. *)
let add inv db ~name ~expr spec =
  Invariant.add inv ~name (Planner.plan ~db expr) spec

let seniors = Algebra.(select (Predicate.eq_const 2 (Value.int 1)) (base "oncall"))

let test_prediction () =
  let db = setup () in
  let inv = Invariant.create db in
  add inv db ~name:"two-seniors" ~expr:seniors (Invariant.Min_cardinality 2);
  add inv db ~name:"any-oncall" ~expr:(Algebra.base "oncall")
    (Invariant.Min_cardinality 1);
  Alcotest.(check (list string)) "nothing violated now" []
    (List.map (fun v -> v.Invariant.name) (Invariant.check_now inv));
  (* The engine knows the future: senior coverage breaks at 10, the
     roster empties at 40. *)
  Alcotest.(check (option string)) "senior gap predicted" (Some "10")
    (Option.map Time.to_string
       (Invariant.next_violation inv ~name:"two-seniors" ~horizon:(fin 100)));
  Alcotest.(check (option string)) "roster gap predicted" (Some "40")
    (Option.map Time.to_string
       (Invariant.next_violation inv ~name:"any-oncall" ~horizon:(fin 100)));
  Alcotest.(check (option string)) "horizon cuts off" None
    (Option.map Time.to_string
       (Invariant.next_violation inv ~name:"any-oncall" ~horizon:(fin 30)))

let test_topping_up_removes_violation () =
  let db = setup () in
  let inv = Invariant.create db in
  add inv db ~name:"two-seniors" ~expr:seniors (Invariant.Min_cardinality 2);
  (* Act on the prediction: renew operator 1's shift before time 10. *)
  Database.insert db "oncall" (Tuple.ints [ 1; 1 ]) ~texp:(fin 50);
  Alcotest.(check (option string)) "violation postponed" (Some "25")
    (Option.map Time.to_string
       (Invariant.next_violation inv ~name:"two-seniors" ~horizon:(fin 100)))

let test_advance_reports_transitions () =
  let db = setup () in
  let inv = Invariant.create db in
  add inv db ~name:"two-seniors" ~expr:seniors (Invariant.Min_cardinality 2);
  add inv db ~name:"any-oncall" ~expr:(Algebra.base "oncall")
    (Invariant.Min_cardinality 1);
  let violations = Invariant.advance inv (fin 50) in
  Alcotest.(check (list string)) "transitions in time order"
    [ "two-seniors@10"; "any-oncall@40" ]
    (List.map
       (fun v -> Printf.sprintf "%s@%s" v.Invariant.name (Time.to_string v.Invariant.at))
       violations);
  Alcotest.(check int) "still violated now" 2 (List.length (Invariant.check_now inv))

let test_max_cardinality () =
  let db = setup () in
  let inv = Invariant.create db in
  (* At most one senior allowed: already broken. *)
  add inv db ~name:"cap" ~expr:seniors (Invariant.Max_cardinality 1);
  (match Invariant.check_now inv with
   | [ v ] ->
     Alcotest.(check int) "cardinality reported" 2 v.Invariant.cardinality
   | _ -> Alcotest.fail "expected one violation");
  (* A difference can grow by expiration, entering a max violation. *)
  let tbl = Database.create_table db ~name:"ack" ~columns:[ "op"; "level" ] in
  Table.insert tbl (Tuple.ints [ 3; 2 ]) ~texp:(fin 5);
  add inv db ~name:"unacked"
    ~expr:Algebra.(diff (base "oncall") (base "ack"))
    (Invariant.Max_cardinality 2);
  Alcotest.(check (option string)) "growth into violation predicted" (Some "5")
    (Option.map Time.to_string
       (Invariant.next_violation inv ~name:"unacked" ~horizon:(fin 100)))

let test_management () =
  let db = setup () in
  let inv = Invariant.create db in
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Invariant.add: non-positive bound") (fun () ->
      add inv db ~name:"x" ~expr:seniors (Invariant.Min_cardinality 0));
  add inv db ~name:"x" ~expr:seniors (Invariant.Min_cardinality 1);
  Alcotest.check_raises "duplicate" (Invalid_argument "Invariant.add: x exists")
    (fun () -> add inv db ~name:"x" ~expr:seniors (Invariant.Min_cardinality 1));
  Alcotest.(check bool) "remove" true (Invariant.remove inv "x");
  Alcotest.(check bool) "remove twice" false (Invariant.remove inv "x");
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Invariant.next_violation inv ~name:"x" ~horizon:(fin 10)))

(* Property: the predicted violation time is exactly the first sampled
   time at which a fresh evaluation violates. *)
let prop_prediction_matches_brute_force =
  Generators.qtest "next_violation = brute-force first bad time" ~count:150
    (QCheck2.Gen.pair (Generators.expr_and_env_or_nested_difference ()) (QCheck2.Gen.int_range 1 4))
    (fun ((expr, bindings), bound) ->
      let db = Database.create () in
      List.iter
        (fun (name, r) ->
          let columns =
            List.init (Relation.arity r) (fun i -> Printf.sprintf "c%d" i)
          in
          let tbl = Database.create_table db ~name ~columns in
          Relation.iter (fun t texp -> Table.insert tbl t ~texp) r)
        bindings;
      let inv = Invariant.create db in
      add inv db ~name:"w" ~expr (Invariant.Min_cardinality bound);
      let horizon = 40 in
      let env tau name =
        Option.map (fun tb -> Table.snapshot tb ~tau) (Database.table db name)
      in
      let bad tau =
        Relation.cardinal
          (Eval.relation_at ~env:(env (fin tau)) ~tau:(fin tau) expr)
        < bound
      in
      if bad 0 then true
        (* next_violation is about transitions out of a valid state;
           an already-violated constraint is check_now's business. *)
      else
        let brute =
          List.find_opt bad (List.init (horizon - 1) (fun i -> i + 1))
        in
        let predicted =
          Invariant.next_violation inv ~name:"w" ~horizon:(fin horizon)
        in
        (match brute, predicted with
         | None, None -> true
         | Some b, Some p -> Time.equal (fin b) p
         | Some _, None | None, Some _ -> false))

(* Property: the transitions [advance] reports — for every bound from 1
   to 6, both ways — are exactly the ticks in ]from, target] at which a
   fresh naive evaluation turns violated. *)
let prop_advance_matches_brute_force =
  Generators.qtest "advance = brute-force per-tick transitions" ~count:150
    (QCheck2.Gen.triple
       (Generators.expr_and_env_or_nested_difference ()) (QCheck2.Gen.int_range 0 5)
       (QCheck2.Gen.int_range 0 30))
    (fun ((expr, bindings), start, span) ->
      let db = Database.create () in
      List.iter
        (fun (name, r) ->
          let columns =
            List.init (Relation.arity r) (fun i -> Printf.sprintf "c%d" i)
          in
          let tbl = Database.create_table db ~name ~columns in
          Relation.iter (fun t texp -> Table.insert tbl t ~texp) r)
        bindings;
      Database.advance_to db (fin start);
      let inv = Invariant.create db in
      let specs =
        List.concat_map
          (fun b ->
            [ (Printf.sprintf "max%d" b, Invariant.Max_cardinality b);
              (Printf.sprintf "min%d" b, Invariant.Min_cardinality b) ])
          [ 1; 2; 3; 4; 5; 6 ]
      in
      List.iter (fun (name, spec) -> add inv db ~name ~expr spec) specs;
      let cardinality tau =
        Relation.cardinal
          (Eval.relation_at
             ~env:(fun name ->
               Option.map (fun tb -> Table.snapshot tb ~tau:(fin tau))
                 (Database.table db name))
             ~tau:(fin tau) expr)
      in
      let counts = Array.init (span + 1) (fun i -> cardinality (start + i)) in
      let bad spec i =
        match spec with
        | Invariant.Min_cardinality b -> counts.(i) < b
        | Invariant.Max_cardinality b -> counts.(i) > b
      in
      let brute =
        List.init span (fun i -> i + 1)
        |> List.concat_map (fun i ->
            List.filter_map
              (fun (name, spec) ->
                if bad spec i && not (bad spec (i - 1)) then
                  Some (Printf.sprintf "%s@%d" name (start + i))
                else None)
              (List.sort compare specs))
      in
      let reported =
        List.map
          (fun v ->
            Printf.sprintf "%s@%s" v.Invariant.name (Time.to_string v.Invariant.at))
          (Invariant.advance inv (fin (start + span)))
      in
      brute = reported && Time.equal (Database.now db) (fin (start + span)))

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
