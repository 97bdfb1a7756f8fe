open Expirel_core

let fin = Time.of_int
let t1 = Tuple.ints [ 1 ]
let t2 = Tuple.ints [ 2 ]

let test_set_semantics () =
  let r = Relation.empty ~arity:1 in
  let r = Relation.add t1 ~texp:(fin 5) r in
  let r = Relation.add t1 ~texp:(fin 3) r in
  Alcotest.(check int) "still one tuple" 1 (Relation.cardinal r);
  Alcotest.(check bool) "max texp kept" true (Time.equal (Relation.texp r t1) (fin 5));
  let r = Relation.add t1 ~texp:(fin 9) r in
  Alcotest.(check bool) "later texp wins" true (Time.equal (Relation.texp r t1) (fin 9));
  let r = Relation.add_min t1 ~texp:(fin 2) r in
  Alcotest.(check bool) "add_min keeps earlier" true
    (Time.equal (Relation.texp r t1) (fin 2));
  let r = Relation.replace t1 ~texp:(fin 7) r in
  Alcotest.(check bool) "replace overwrites" true
    (Time.equal (Relation.texp r t1) (fin 7))

let test_arity_checks () =
  Alcotest.check_raises "negative arity"
    (Invalid_argument "Relation.empty: negative arity") (fun () ->
      ignore (Relation.empty ~arity:(-1)));
  let r = Relation.empty ~arity:2 in
  Alcotest.check_raises "tuple arity mismatch"
    (Invalid_argument "Relation: tuple arity 1, relation arity 2") (fun () ->
      ignore (Relation.add t1 ~texp:(fin 1) r))

let test_exp () =
  let r =
    Relation.of_list ~arity:1
      [ t1, fin 5; t2, fin 10; Tuple.ints [ 3 ], Time.Inf ]
  in
  let at4 = Relation.exp (fin 4) r in
  Alcotest.(check int) "all live at 4" 3 (Relation.cardinal at4);
  let at5 = Relation.exp (fin 5) r in
  Alcotest.(check int) "texp=5 dies at 5" 2 (Relation.cardinal at5);
  Alcotest.(check bool) "t1 gone" false (Relation.mem t1 at5);
  let at_inf_minus = Relation.exp (fin 1000) r in
  Alcotest.(check int) "immortal survives" 1 (Relation.cardinal at_inf_minus)

let test_union_max () =
  let a = Relation.of_list ~arity:1 [ t1, fin 5; t2, fin 3 ] in
  let b = Relation.of_list ~arity:1 [ t1, fin 8 ] in
  let u = Relation.union_max a b in
  Alcotest.(check int) "two tuples" 2 (Relation.cardinal u);
  Alcotest.(check bool) "max texp for shared" true
    (Time.equal (Relation.texp u t1) (fin 8));
  Alcotest.check_raises "union compatibility"
    (Invalid_argument "Relation.union_max: arity mismatch (union compatibility)")
    (fun () -> ignore (Relation.union_max a (Relation.empty ~arity:2)))

let test_map_tuples_dedup_max () =
  (* Both tuples project to <25>; the projection keeps the max texp —
     Equation (3) / Figure 2(c). *)
  let r =
    Relation.of_list ~arity:2
      [ Tuple.ints [ 1; 25 ], fin 10; Tuple.ints [ 2; 25 ], fin 15 ]
  in
  let p = Relation.map_tuples ~arity:1 (Tuple.project [ 2 ]) r in
  Alcotest.(check int) "deduplicated" 1 (Relation.cardinal p);
  Alcotest.(check bool) "max lifetime inherited" true
    (Time.equal (Relation.texp p (Tuple.ints [ 25 ])) (fin 15))

let test_equal_tuples () =
  let a = Relation.of_list ~arity:1 [ t1, fin 5 ] in
  let b = Relation.of_list ~arity:1 [ t1, fin 9 ] in
  Alcotest.(check bool) "same tuples" true (Relation.equal_tuples a b);
  Alcotest.(check bool) "different texps" false (Relation.equal a b)

let test_expiry_times () =
  let r =
    Relation.of_list ~arity:1
      [ t1, fin 5; t2, fin 3; Tuple.ints [ 3 ], fin 5; Tuple.ints [ 4 ], Time.Inf ]
  in
  Alcotest.(check (list string)) "distinct ascending finite" [ "3"; "5" ]
    (List.map Time.to_string (Relation.expiry_times r))

let rel_gen = Generators.relation ~arity:2
let tau2 = QCheck2.Gen.pair Generators.time_finite Generators.time_finite

let prop_exp_composes =
  Generators.qtest "exp t' (exp t r) = exp (max t t') r"
    (QCheck2.Gen.pair rel_gen tau2)
    (fun (r, (tau, tau')) ->
      Relation.equal
        (Relation.exp tau' (Relation.exp tau r))
        (Relation.exp (Time.max tau tau') r))

let prop_exp_shrinks =
  Generators.qtest "exp only removes" (QCheck2.Gen.pair rel_gen Generators.time_finite)
    (fun (r, tau) ->
      Relation.fold
        (fun t texp ok -> ok && Relation.texp_opt r t = Some texp)
        (Relation.exp tau r) true)

let prop_union_commutes =
  Generators.qtest "union_max commutative" (QCheck2.Gen.pair rel_gen rel_gen)
    (fun (a, b) -> Relation.equal (Relation.union_max a b) (Relation.union_max b a))

let prop_min_texp_bound =
  Generators.qtest "min_texp bounds every tuple" rel_gen (fun r ->
      let m = Relation.min_texp r in
      Relation.fold (fun _ texp ok -> ok && Time.(texp >= m)) r true)

(* [exp] against the naive filter, on relations whose cached bound is
   exact and on ones a removal left stale-low.  Its kept bound is sound:
   [exp] at any kept texp drops that tuple (a bound above it would
   answer with the relation unchanged).  And one pass settles it: the
   same [exp] again answers with the kept relation itself, in O(1). *)
let prop_exp_naive =
  let naive tau r =
    Relation.of_list ~arity:(Relation.arity r)
      (List.filter (fun (_, e) -> Time.(e > tau)) (Relation.to_list r))
  in
  Generators.qtest "exp is the naive filter, bounded, settled after one pass"
    (QCheck2.Gen.triple rel_gen QCheck2.Gen.bool Generators.time_finite)
    (fun (r, stale, tau) ->
      let r =
        match Relation.to_list r with
        | (t, _) :: _ when stale -> Relation.remove t r
        | _ -> r
      in
      let kept = Relation.exp tau r in
      Relation.equal kept (naive tau r)
      && Relation.fold
           (fun t e ok -> ok && not (Relation.mem t (Relation.exp e kept)))
           kept true
      && Relation.exp tau kept == kept)

let suite =
  [ Alcotest.test_case "set semantics with max merge" `Quick test_set_semantics;
    Alcotest.test_case "arity validation" `Quick test_arity_checks;
    Alcotest.test_case "exp_tau filtering" `Quick test_exp;
    Alcotest.test_case "union with max" `Quick test_union_max;
    Alcotest.test_case "projection dedup keeps max (Eq 3)" `Quick
      test_map_tuples_dedup_max;
    Alcotest.test_case "equality modulo texp" `Quick test_equal_tuples;
    Alcotest.test_case "expiry_times" `Quick test_expiry_times;
    prop_exp_composes;
    prop_exp_shrinks;
    prop_union_commutes;
    prop_min_texp_bound;
    prop_exp_naive ]
