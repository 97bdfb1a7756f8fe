open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int
let env = News.figure1_env
let difference = Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))
let histogram = Algebra.(project [ 2; 3 ] (aggregate [ 2 ] Aggregate.Count (base "Pol")))
let join = Algebra.(join (Predicate.eq_cols 1 3) (base "Pol") (base "El"))

let test_materialise () =
  let v = View.materialise ~env ~tau:Time.zero difference in
  Alcotest.(check string) "texp(e)" "3" (Time.to_string v.View.texp);
  Alcotest.(check int) "contents" 1 (Relation.cardinal v.View.contents);
  Alcotest.(check bool) "computed_at" true (Time.equal v.View.computed_at Time.zero)

let test_read_lifecycle () =
  let v = View.materialise ~env ~tau:Time.zero histogram in
  (match View.read v ~tau:(fin 5) with
   | `Valid r -> Alcotest.(check int) "still two rows at 5" 2 (Relation.cardinal r)
   | `Expired _ -> Alcotest.fail "valid until 10");
  (match View.read v ~tau:(fin 10) with
   | `Expired t -> Alcotest.(check string) "expired at 10" "10" (Time.to_string t)
   | `Valid _ -> Alcotest.fail "must be expired at texp(e)");
  (match View.read v ~tau:(fin 9) with
   | `Valid r ->
     (* Both rows carry texp 10 (the change point of partition 25 and the
        emptying of partition 35), so both are still visible at 9. *)
     Alcotest.(check int) "both rows at 9" 2 (Relation.cardinal r)
   | `Expired _ -> Alcotest.fail "valid at 9")

let test_refresh () =
  let v = View.materialise ~env ~tau:Time.zero histogram in
  let v' = View.refresh ~env ~tau:(fin 10) v in
  Alcotest.(check bool) "recomputed at 10" true (Time.equal v'.View.computed_at (fin 10));
  (match View.read v' ~tau:(fin 12) with
   | `Valid r ->
     Alcotest.(check bool) "histogram now <25,1>" true
       (Relation.equal_tuples r (Relation.of_list ~arity:2 [ Tuple.ints [ 25; 1 ], fin 15 ]))
   | `Expired _ -> Alcotest.fail "fresh view valid")

let test_read_schrodinger () =
  let v = View.materialise ~env ~tau:Time.zero difference in
  (match View.read_schrodinger v ~tau:(fin 1) ~policy:Validity.Prefer_delay with
   | `Valid _ -> ()
   | `Observe _ -> Alcotest.fail "valid at 1");
  (match View.read_schrodinger v ~tau:(fin 7) ~policy:Validity.Prefer_delay with
   | `Observe (Validity.Delay_until t) ->
     Alcotest.(check string) "delay to 15" "15" (Time.to_string t)
   | _ -> Alcotest.fail "expected delay");
  (* After all critical tuples died, the view answers again — with no
     refresh in between. *)
  (match View.read_schrodinger v ~tau:(fin 20) ~policy:Validity.Prefer_delay with
   | `Valid r -> Alcotest.(check int) "empty but correct" 0 (Relation.cardinal r)
   | `Observe _ -> Alcotest.fail "valid from 15 on")

let test_maintenance_times () =
  Alcotest.(check (list string)) "monotonic: never" []
    (List.map Time.to_string
       (View.maintenance_times ~env ~from:Time.zero ~horizon:(fin 100) join));
  Alcotest.(check (list string)) "histogram: at 10" [ "10" ]
    (List.map Time.to_string
       (View.maintenance_times ~env ~from:Time.zero ~horizon:(fin 100) histogram));
  (* Difference: recompute at 3 (tuple <2> reappears), then at 5
     (tuple <1> reappears), then stable. *)
  Alcotest.(check (list string)) "difference: 3 then 5" [ "3"; "5" ]
    (List.map Time.to_string
       (View.maintenance_times ~env ~from:Time.zero ~horizon:(fin 100) difference))

let prop_read_valid_matches_recomputation =
  Generators.qtest "read = recomputation while unexpired" ~count:200
    (QCheck2.Gen.pair (Generators.expr_and_env ()) Generators.time_finite)
    (fun ((e, bindings), tau) ->
      let env = Eval.env_of_list bindings in
      let v = View.materialise ~env ~tau e in
      List.for_all
        (fun tau' ->
          if Time.is_infinite tau' || Time.(tau' < tau) then true
          else
            match View.read v ~tau:tau' with
            | `Valid r -> Relation.equal_tuples r (Eval.relation_at ~env ~tau:tau' e)
            | `Expired _ -> Time.(tau' >= v.View.texp))
        Generators.sample_times)

let prop_maintenance_strictly_increasing =
  Generators.qtest "maintenance schedule strictly increases" ~count:100
    (Generators.expr_and_env ())
    (fun (e, bindings) ->
      let env = Eval.env_of_list bindings in
      let times = View.maintenance_times ~env ~from:Time.zero ~horizon:(fin 60) e in
      let rec increasing = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> Time.(a < b) && increasing rest
      in
      increasing times)

let prop_monotonic_views_never_recompute =
  Generators.qtest "Theorem 1 consequence: empty schedules" ~count:100
    (Generators.expr_and_env ~allow_non_monotonic:false ())
    (fun (e, bindings) ->
      let env = Eval.env_of_list bindings in
      View.maintenance_times ~env ~from:Time.zero ~horizon:(fin 60) e = [])

let suite =
  [ Alcotest.test_case "materialisation" `Quick test_materialise;
    Alcotest.test_case "read through the lifecycle" `Quick test_read_lifecycle;
    Alcotest.test_case "refresh recomputes" `Quick test_refresh;
    Alcotest.test_case "Schrödinger reads" `Quick test_read_schrodinger;
    Alcotest.test_case "maintenance schedules" `Quick test_maintenance_times;
    prop_read_valid_matches_recomputation;
    prop_maintenance_strictly_increasing;
    prop_monotonic_views_never_recompute ]
