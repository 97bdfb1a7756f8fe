open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int
let env = News.figure1_env

let difference = Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))
let histogram = Algebra.(aggregate [ 2 ] Aggregate.Count (base "Pol"))
let join = Algebra.(join (Predicate.eq_cols 1 3) (base "Pol") (base "El"))

let test_remaining () =
  Alcotest.(check string) "Pol at 0" "10"
    (Time.to_string (Qos.remaining_of ~env ~tau:Time.zero "Pol"));
  Alcotest.(check string) "El at 0" "2"
    (Time.to_string (Qos.remaining_of ~env ~tau:Time.zero "El"));
  Alcotest.(check string) "El at 4 (only <1,75>@5 left)" "1"
    (Time.to_string (Qos.remaining_of ~env ~tau:(fin 4) "El"));
  Alcotest.(check string) "empty relation: infinite" "inf"
    (Time.to_string (Qos.remaining_of ~env ~tau:(fin 50) "El"));
  Alcotest.check_raises "unknown base" (Errors.Unknown_relation "nope") (fun () ->
      ignore (Qos.remaining_of ~env ~tau:Time.zero "nope"))

let remaining_at tau name = Qos.remaining_of ~env ~tau name

let test_floors () =
  let floor e = Time.to_string (Qos.validity_floor ~remaining:(remaining_at Time.zero) e) in
  Alcotest.(check string) "monotonic: infinite" "inf" (floor join);
  (* Difference: bounded by El's shortest remaining lifetime (2); the
     true texp(e) is 3. *)
  Alcotest.(check string) "difference floor" "2" (floor difference);
  (* Aggregation: bounded by Pol's shortest remaining lifetime (10);
     the true texp(e) is exactly 10 here. *)
  Alcotest.(check string) "aggregation floor" "10" (floor histogram)

let test_admission () =
  Alcotest.(check bool) "join guaranteed forever" true
    (Qos.admit ~env ~tau:Time.zero ~required:1000 join = `Guaranteed);
  Alcotest.(check bool) "histogram guaranteed for 10" true
    (Qos.admit ~env ~tau:Time.zero ~required:10 histogram = `Guaranteed);
  Alcotest.(check bool) "but not for 11" true
    (Qos.admit ~env ~tau:Time.zero ~required:11 histogram = `Must_evaluate);
  Alcotest.(check bool) "difference needs evaluation beyond 2" true
    (Qos.admit ~env ~tau:Time.zero ~required:3 difference = `Must_evaluate)

(* Soundness: the floor never exceeds the actual expression lifetime. *)
let prop_floor_sound =
  Generators.qtest "tau + floor <= texp(e)" ~count:300
    (QCheck2.Gen.pair (Generators.expr_and_env ()) Generators.time_finite)
    (fun ((e, bindings), tau) ->
      let env = Eval.env_of_list bindings in
      let remaining = Qos.remaining_of ~env ~tau in
      let floor = Qos.validity_floor ~remaining e in
      let texp = Eval.expression_texp ~env ~tau e in
      Time.(Time.add tau floor <= texp) || Time.is_infinite floor && Time.is_infinite texp)

(* Admission never over-promises. *)
let prop_admission_sound =
  Generators.qtest "`Guaranteed implies the full requirement" ~count:300
    (QCheck2.Gen.tup3 (Generators.expr_and_env ()) Generators.time_finite
       (QCheck2.Gen.int_range 0 30))
    (fun ((e, bindings), tau, required) ->
      let env = Eval.env_of_list bindings in
      match Qos.admit ~env ~tau ~required e with
      | `Must_evaluate -> true
      | `Guaranteed ->
        Time.(Eval.expression_texp ~env ~tau e
              >= Time.add tau (Time.of_int required)))

let suite =
  [ Alcotest.test_case "remaining lifetimes" `Quick test_remaining;
    Alcotest.test_case "validity floors" `Quick test_floors;
    Alcotest.test_case "QoS admission" `Quick test_admission;
    prop_floor_sound;
    prop_admission_sound ]
