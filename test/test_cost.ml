open Expirel_core
open Expirel_paper

let fin = Time.of_int

let env_of rows_r rows_s rows_t =
  Eval.env_of_list
    [ "R", Relation.of_list ~arity:1 rows_r;
      "S", Relation.of_list ~arity:1 rows_s;
      "T", Relation.of_list ~arity:1 rows_t ]

let big n texp = List.init n (fun i -> Tuple.ints [ i ], texp)

let test_eval_cost_charges_cardinalities () =
  let env = env_of (big 10 (fin 100)) (big 5 (fin 100)) (big 4 (fin 100)) in
  let est e = Cost.estimate ~env ~tau:Time.zero ~horizon:(fin 50) e in
  (* base: 10 *)
  Alcotest.(check (float 0.01)) "base" 10. (est (Algebra.base "R")).Cost.eval_cost;
  (* base 10 + select 10 *)
  Alcotest.(check (float 0.01)) "select" 20.
    (est Algebra.(select Predicate.True (base "R"))).Cost.eval_cost;
  (* bases 10 + 5 + product 50 *)
  Alcotest.(check (float 0.01)) "product" 65.
    (est Algebra.(product (base "R") (base "S"))).Cost.eval_cost;
  (* bases 10 + 5 + diff 15 *)
  Alcotest.(check (float 0.01)) "diff" 30.
    (est Algebra.(diff (base "R") (base "S"))).Cost.eval_cost

let test_recomputation_multiplier () =
  (* S's copy of the shared tuple dies at 5 and 9 after renewals...
     construct two reappearances: two critical tuples expiring at 5 and 9. *)
  let env =
    Eval.env_of_list
      [ "R",
        Relation.of_list ~arity:1
          [ Tuple.ints [ 1 ], fin 50; Tuple.ints [ 2 ], fin 50 ];
        "S",
        Relation.of_list ~arity:1
          [ Tuple.ints [ 1 ], fin 5; Tuple.ints [ 2 ], fin 9 ]
      ]
  in
  let est = Cost.estimate ~env ~tau:Time.zero ~horizon:(fin 40)
      Algebra.(diff (base "R") (base "S"))
  in
  Alcotest.(check int) "two recomputations" 2 est.Cost.recomputations;
  Alcotest.(check (float 0.01)) "total = eval x 3" (est.Cost.eval_cost *. 3.)
    est.Cost.total

let test_choose_trade_off () =
  (* (R - S) x T vs (R x T) - (S x T): the pull-up removes the
     recomputation but inflates the products.  With many recomputations
     ahead the pull-up wins; with none, the original is cheaper. *)
  let original = Algebra.(product (diff (base "R") (base "S")) (base "T")) in
  let pulled =
    Algebra.(diff (product (base "R") (base "T")) (product (base "S") (base "T")))
  in
  (* Heavy reappearance churn in R - S (critical tuples at staggered
     times), while T dies early: after the pull-up no product pair
     outlives its S-side copy, so the rewritten plan never recomputes. *)
  let churn_env =
    env_of
      (big 20 (fin 100))
      (List.init 15 (fun i -> Tuple.ints [ i ], fin (10 + (2 * i))))
      (big 10 (fin 3))
  in
  let chosen, _ =
    Cost.choose ~env:churn_env ~tau:Time.zero ~horizon:(fin 90)
      [ original; pulled ]
  in
  Alcotest.(check string) "churn: pull-up wins" (Algebra.to_string pulled)
    (Algebra.to_string chosen);
  (* No overlap at all: nothing ever recomputes, original is cheaper. *)
  let calm_env =
    env_of (big 20 (fin 100))
      (List.init 15 (fun i -> Tuple.ints [ 1000 + i ], fin 100))
      (big 10 (fin 100))
  in
  let chosen, est =
    Cost.choose ~env:calm_env ~tau:Time.zero ~horizon:(fin 90)
      [ original; pulled ]
  in
  Alcotest.(check string) "calm: original wins" (Algebra.to_string original)
    (Algebra.to_string chosen);
  Alcotest.(check int) "no recomputations" 0 est.Cost.recomputations

let prop_semantics_independent_of_choice =
  Generators.qtest "choose only picks among equivalent plans" ~count:100
    (Generators.expr_and_env ())
    (fun (e, bindings) ->
      let env = Eval.env_of_list bindings in
      let arity_env name = Option.map Relation.arity (List.assoc_opt name bindings) in
      let rewritten, _ = Rewrite.rewrite ~env:arity_env e in
      let chosen, _ =
        Cost.choose ~env ~tau:Time.zero ~horizon:(fin 30) [ e; rewritten ]
      in
      Relation.equal
        (Eval.relation_at ~env ~tau:(fin 7) chosen)
        (Eval.relation_at ~env ~tau:(fin 7) e))

let suite =
  [ Alcotest.test_case "per-operator cardinality charging" `Quick
      test_eval_cost_charges_cardinalities;
    Alcotest.test_case "recomputation multiplier" `Quick test_recomputation_multiplier;
    Alcotest.test_case "cost-gated rewriting trade-off" `Quick test_choose_trade_off;
    prop_semantics_independent_of_choice ]
