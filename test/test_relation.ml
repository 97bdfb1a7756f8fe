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

(* [exp] against the naive filter, on relations as built and after a
   removal.  Its kept minimum is sound: [exp] at any kept texp drops
   that tuple (a minimum above it would answer with the relation
   unchanged).  And one pass settles it: the same [exp] again answers
   with the kept relation itself, in O(1). *)
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

(* The tree against an association-list model: random sequences of
   every update, over keys drawn from a range wide enough to force
   rotations, checked after each step on contents, lookups, the cached
   size and minimum, and the balance and cache invariants. *)
module Model = struct
  let key = QCheck2.Gen.map (fun k -> Tuple.ints [ k; k mod 3 ]) (QCheck2.Gen.int_range 0 80)

  type op =
    | Add of Tuple.t * Time.t
    | Add_min of Tuple.t * Time.t
    | Replace of Tuple.t * Time.t
    | Remove of Tuple.t
    | Exp of Time.t
    | Filter of int

  let op =
    let open QCheck2.Gen in
    frequency
      [ 4, map2 (fun k e -> Add (k, e)) key Generators.texp;
        2, map2 (fun k e -> Add_min (k, e)) key Generators.texp;
        2, map2 (fun k e -> Replace (k, e)) key Generators.texp;
        3, map (fun k -> Remove k) key;
        1, map (fun tau -> Exp tau) Generators.time_finite;
        1, map (fun m -> Filter m) (int_range 2 5) ]

  let ops = QCheck2.Gen.(list_size (int_range 0 300) op)

  (* Sorted by tuple, one binding per tuple. *)
  let rec upsert merge k e = function
    | [] -> [ (k, e) ]
    | ((k', e') as b) :: rest ->
      let c = Tuple.compare k k' in
      if c < 0 then (k, e) :: b :: rest
      else if c = 0 then (k, merge e' e) :: rest
      else b :: upsert merge k e rest

  let keeps m t = Value.compare (Tuple.attr t 1) (Value.int 0) >= 0 && Tuple.hash t mod m <> 0

  let apply_model m = function
    | Add (k, e) -> upsert Time.max k e m
    | Add_min (k, e) -> upsert Time.min k e m
    | Replace (k, e) -> upsert (fun _ e -> e) k e m
    | Remove k -> List.filter (fun (k', _) -> not (Tuple.equal k k')) m
    | Exp tau -> List.filter (fun (_, e) -> Time.(e > tau)) m
    | Filter n -> List.filter (fun (k, _) -> keeps n k) m

  let apply r = function
    | Add (k, e) -> Relation.add k ~texp:e r
    | Add_min (k, e) -> Relation.add_min k ~texp:e r
    | Replace (k, e) -> Relation.replace k ~texp:e r
    | Remove k -> Relation.remove k r
    | Exp tau -> Relation.exp tau r
    | Filter n -> Relation.filter (fun k _ -> keeps n k) r

  let same r m =
    let same_row (k, e) (k', e') = Tuple.equal k k' && Time.equal e e' in
    List.equal same_row (Relation.to_list r) m
    && Relation.cardinal r = List.length m
    && Time.equal (Relation.min_texp r) (Time.min_list (List.map snd m))
    && List.for_all (fun (k, e) -> Relation.mem k r && Relation.texp_opt r k = Some e) m
    && Relation.well_formed r

  let run ops =
    List.fold_left
      (fun (r, m, ok) op ->
        let r = apply r op and m = apply_model m op in
        (r, m, ok && same r m))
      (Relation.empty ~arity:2, [], true)
      ops
end

let prop_tree_model =
  Generators.qtest "every update equals the list model; the tree stays balanced and exact"
    Model.ops (fun ops ->
      let r, m, ok = Model.run ops in
      (* A sorted listing builds in one pass, to the same relation. *)
      let built = Relation.of_list ~arity:2 m in
      ok && Model.same built m && Relation.equal built r)

let naive_diff before after =
  let ups =
    List.filter (fun (k, e) -> Relation.texp_opt before k <> Some e) (Relation.to_list after)
  and gone =
    List.filter (fun k -> not (Relation.mem k after)) (Relation.tuples before)
  in
  (ups, gone, Relation.cardinal after)

let diff_agrees before after =
  let same_row (k, e) (k', e') = Tuple.equal k k' && Time.equal e e' in
  let ups, gone, n = naive_diff before after in
  let changes = List.length ups + List.length gone in
  (match Relation.diff ~limit:changes before after with
   | Some (ups', gone', n') ->
     List.equal same_row ups ups' && List.equal Tuple.equal gone gone' && n = n'
   | None -> false)
  && (changes = 0 || Relation.diff ~limit:(changes - 1) before after = None)
  && Relation.equal before after = (changes = 0)
  && Relation.equal_tuples before after = (gone = [] && List.for_all (fun (k, _) -> Relation.mem k before) ups)

(* Arbitrary pairs (two trees built apart) and path copies (the second
   tree is the first after a few updates, sharing what they left alone). *)
let prop_diff_naive =
  Generators.qtest "diff equals the naive diff, on any pair and on path copies"
    QCheck2.Gen.(triple Model.ops Model.ops (list_size (int_range 0 12) Model.op))
    (fun (ops, ops', edits) ->
      let before, _, _ = Model.run ops and other, _, _ = Model.run ops' in
      let copy = List.fold_left Model.apply before edits in
      diff_agrees before other && diff_agrees other before
      && diff_agrees before copy && diff_agrees copy before)

let prop_fold_expired =
  Generators.qtest "fold_expired is the filter of the rows exp drops"
    QCheck2.Gen.(pair Model.ops Generators.time_finite)
    (fun (ops, tau) ->
      let r, _, _ = Model.run ops in
      let folded = Relation.fold_expired tau (fun k e acc -> (k, e) :: acc) r [] in
      List.rev folded = List.filter (fun (_, e) -> Time.(e <= tau)) (Relation.to_list r))

(* Times at the ends of the int range, which the cached minimum cannot
   tell apart from [Inf]: the minimum, [exp] and [fold_expired] still
   answer exactly. *)
let test_extreme_times () =
  let big = Time.of_int max_int and huge = Time.of_int (max_int - 1) in
  let low = Time.of_int min_int and zero = Time.of_int 0 in
  let rows = [ (Tuple.ints [ 1 ], big); (Tuple.ints [ 2 ], Time.Inf); (Tuple.ints [ 3 ], huge);
               (Tuple.ints [ 4 ], low); (Tuple.ints [ 5 ], zero) ] in
  let r = Relation.of_list ~arity:1 rows in
  let min_of r = Time.to_string (Relation.min_texp r) in
  Alcotest.(check string) "min over all" (Time.to_string low) (min_of r);
  let r' = Relation.remove (Tuple.ints [ 4 ]) (Relation.remove (Tuple.ints [ 5 ]) r) in
  Alcotest.(check string) "min among the top" (Time.to_string huge) (min_of r');
  Alcotest.(check string) "max_int below Inf" (Time.to_string big)
    (min_of (Relation.remove (Tuple.ints [ 3 ]) r'));
  Alcotest.(check string) "Inf alone" "inf"
    (min_of (Relation.of_list ~arity:1 [ (Tuple.ints [ 2 ], Time.Inf) ]));
  List.iter
    (fun tau ->
      let naive = List.filter (fun (_, e) -> Time.(e > tau)) (Relation.to_list r) in
      Alcotest.(check int) ("exp at " ^ Time.to_string tau) (List.length naive)
        (Relation.cardinal (Relation.exp tau r));
      Alcotest.(check bool) ("exp keeps the rows after " ^ Time.to_string tau) true
        (Relation.equal (Relation.exp tau r) (Relation.of_list ~arity:1 naive));
      Alcotest.(check int) ("fold_expired at " ^ Time.to_string tau)
        (List.length rows - List.length naive)
        (Relation.fold_expired tau (fun _ _ n -> n + 1) r 0))
    [ low; zero; huge; big; Time.Inf ];
  Alcotest.(check bool) "well formed" true (Relation.well_formed r)

let suite =
  [ Alcotest.test_case "set semantics with max merge" `Quick test_set_semantics;
    Alcotest.test_case "times at the ends of the range" `Quick test_extreme_times;
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
    prop_exp_naive;
    prop_tree_model;
    prop_diff_naive;
    prop_fold_expired ]
