open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int
let env = News.figure1_env
let difference = Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))

let test_difference_validity () =
  (* Critical tuples: <1> missing during [5,10[, <2> missing during
     [3,15[; valid elsewhere. *)
  let v = Validity.expression_validity ~env ~tau:Time.zero difference in
  Alcotest.(check string) "I(diff)" "[0, 3[ u [15, inf[" (Interval_set.to_string v)

let test_eq12_coarsening () =
  let exact = Validity.expression_validity ~env ~tau:Time.zero difference in
  let coarse =
    Validity.difference_validity_eq12 ~env ~tau:Time.zero
      Algebra.(project [ 1 ] (base "Pol"))
      Algebra.(project [ 1 ] (base "El"))
  in
  Alcotest.(check string) "Eq 12 single window" "[0, 3[ u [15, inf["
    (Interval_set.to_string coarse);
  (* Coarse validity never claims more than the exact one. *)
  List.iter
    (fun t ->
      if Interval_set.mem t coarse then
        Alcotest.(check bool) "coarse subset of exact" true (Interval_set.mem t exact))
    Generators.sample_times

let test_monotonic_validity_everywhere () =
  let join = Algebra.(join (Predicate.eq_cols 1 3) (base "Pol") (base "El")) in
  let v = Validity.expression_validity ~env ~tau:(fin 2) join in
  Alcotest.(check string) "[tau, inf[" "[2, inf[" (Interval_set.to_string v)

let test_aggregate_validity () =
  let histogram = Algebra.(aggregate [ 2 ] Aggregate.Count (base "Pol")) in
  let v = Validity.expression_validity ~env ~tau:Time.zero histogram in
  (* Partition 25 changes at 10, empties at 15; partition 35 only empties
     (at 10).  Valid during [0,10[ and again from 15 on. *)
  Alcotest.(check string) "I(agg)" "[0, 10[ u [15, inf[" (Interval_set.to_string v)

let test_observe_policies () =
  let validity =
    Interval_set.of_list
      [ Interval.make (fin 0) (fin 3); Interval.from (fin 15) ]
  in
  let obs policy tau = Validity.observe ~policy ~validity (fin tau) in
  (match obs Validity.Prefer_backward 1 with
   | Validity.Answer_now -> ()
   | _ -> Alcotest.fail "inside a window: answer now");
  (match obs Validity.Prefer_backward 7 with
   | Validity.Move_backward t -> Alcotest.(check string) "latest valid" "2" (Time.to_string t)
   | _ -> Alcotest.fail "expected backward");
  (match obs Validity.Prefer_delay 7 with
   | Validity.Delay_until t -> Alcotest.(check string) "next valid" "15" (Time.to_string t)
   | _ -> Alcotest.fail "expected delay");
  (match obs Validity.Recompute_only 7 with
   | Validity.Recompute -> ()
   | _ -> Alcotest.fail "expected recompute");
  (* No earlier coverage: backward falls back to delay. *)
  let late_only = Interval_set.of_interval (Interval.from (fin 10)) in
  (match Validity.observe ~policy:Validity.Prefer_backward ~validity:late_only (fin 4) with
   | Validity.Delay_until t -> Alcotest.(check string) "fallback delay" "10" (Time.to_string t)
   | _ -> Alcotest.fail "expected fallback to delay")

let test_latest_valid_before () =
  let s = Interval_set.of_list [ Interval.make (fin 2) (fin 5) ] in
  Alcotest.(check (option string)) "just before gap" (Some "4")
    (Option.map Time.to_string (Validity.latest_valid_before (fin 9) s));
  Alcotest.(check (option string)) "inside window" (Some "2")
    (Option.map Time.to_string (Validity.latest_valid_before (fin 3) s));
  Alcotest.(check bool) "nothing before" true
    (Validity.latest_valid_before (fin 1) s = None)

(* The load-bearing property: during every claimed validity interval, the
   properly expired materialisation answers exactly like a
   recomputation. *)
let prop_validity_sound =
  Generators.qtest "tau' in I(e) => materialisation = recomputation" ~count:300
    (QCheck2.Gen.pair (Generators.expr_and_env ()) Generators.time_finite)
    (fun ((e, bindings), tau) ->
      let env = Eval.env_of_list bindings in
      let materialised = Eval.relation_at ~env ~tau e in
      let validity = Validity.expression_validity ~env ~tau e in
      List.for_all
        (fun tau' ->
          if Time.is_infinite tau' || Time.(tau' < tau)
             || not (Interval_set.mem tau' validity)
          then true
          else
            Relation.equal_tuples
              (Relation.exp tau' materialised)
              (Eval.relation_at ~env ~tau:tau' e))
        Generators.sample_times)

(* Validity is at least as informative as the single expiration time:
   the whole interval [tau, texp(e)[ is always claimed valid. *)
let prop_validity_extends_texp =
  Generators.qtest "[tau, texp(e)[ is contained in I(e)" ~count:300
    (QCheck2.Gen.pair (Generators.expr_and_env ()) Generators.time_finite)
    (fun ((e, bindings), tau) ->
      let env = Eval.env_of_list bindings in
      let { Eval.texp; _ } = Eval.run ~env ~tau e in
      let validity = Validity.expression_validity ~env ~tau e in
      List.for_all
        (fun tau' ->
          if Time.(tau' < tau) || Time.(tau' >= texp) then true
          else Interval_set.mem tau' validity)
        Generators.sample_times)

let suite =
  [ Alcotest.test_case "difference validity (Section 3.3 example)" `Quick
      test_difference_validity;
    Alcotest.test_case "Equation (12) coarsening" `Quick test_eq12_coarsening;
    Alcotest.test_case "monotonic expressions valid everywhere" `Quick
      test_monotonic_validity_everywhere;
    Alcotest.test_case "aggregation validity windows" `Quick test_aggregate_validity;
    Alcotest.test_case "observer policies (Section 3.3)" `Quick test_observe_policies;
    Alcotest.test_case "latest_valid_before" `Quick test_latest_valid_before;
    prop_validity_sound;
    prop_validity_extends_texp ]
