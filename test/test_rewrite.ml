open Expirel_core
open Expirel_paper

let arities name =
  match name with
  | "R1" | "S1" -> Some 1
  | "R2" | "S2" -> Some 2
  | "R3" -> Some 3
  | _ -> None

let p12 = Predicate.eq_cols 1 2
let c1 v = Predicate.eq_const 1 (Value.int v)

let apply rule e = Rewrite.apply_once ~env:arities rule e

let check_rewrites name rule before after =
  match apply rule before with
  | Some e ->
    Alcotest.(check string) name (Algebra.to_string after) (Algebra.to_string e)
  | None -> Alcotest.failf "%s: rule did not fire on %s" name (Algebra.to_string before)

let test_select_merge () =
  check_rewrites "sigma(sigma) merges" Rewrite.select_merge
    Algebra.(select (c1 1) (select (c1 2) (base "R2")))
    Algebra.(select (Predicate.And (c1 2, c1 1)) (base "R2"));
  check_rewrites "sigma(join) folds into the join predicate" Rewrite.select_merge
    Algebra.(select (c1 1) (join p12 (base "R1") (base "S1")))
    Algebra.(join (Predicate.And (p12, c1 1)) (base "R1") (base "S1"))

let test_select_past_project () =
  (* sigma_{#1=5}(pi_2(R2)) -> pi_2(sigma_{#2=5}(R2)) *)
  check_rewrites "select slides under project" Rewrite.select_past_project
    Algebra.(select (c1 5) (project [ 2 ] (base "R2")))
    Algebra.(project [ 2 ] (select (Predicate.eq_const 2 (Value.int 5)) (base "R2")))

let test_select_pushdown_product () =
  (* Conjuncts split: #1=7 goes left, #3=8 goes right (shifted to #1),
     #1=#3 stays. *)
  let p =
    Predicate.conj
      [ Predicate.eq_const 1 (Value.int 7);
        Predicate.eq_const 3 (Value.int 8);
        Predicate.eq_cols 1 3 ]
  in
  match apply Rewrite.select_pushdown_product
          Algebra.(select p (product (base "R2") (base "S2")))
  with
  | Some (Algebra.Select (stay, Algebra.Product (Algebra.Select (l, _), Algebra.Select (r, _)))) ->
    Alcotest.(check string) "residue" "#1 = #3" (Predicate.to_string stay);
    Alcotest.(check string) "left conjunct" "#1 = 7" (Predicate.to_string l);
    Alcotest.(check string) "right conjunct shifted" "#1 = 8" (Predicate.to_string r)
  | Some e -> Alcotest.failf "unexpected shape %s" (Algebra.to_string e)
  | None -> Alcotest.fail "rule did not fire"

let test_join_predicate_pushdown () =
  (* #1=#3 spans both operands and stays; #1=3 mentions only the left
     operand and is pushed into it. *)
  match apply Rewrite.select_pushdown_product
          Algebra.(join (Predicate.And (Predicate.eq_cols 1 3, c1 3))
                     (base "R2") (base "S1"))
  with
  | Some (Algebra.Join (residue, Algebra.Select (l, _), Algebra.Base "S1")) ->
    Alcotest.(check string) "join residue" "#1 = #3" (Predicate.to_string residue);
    Alcotest.(check string) "pushed left" "#1 = 3" (Predicate.to_string l)
  | Some e -> Alcotest.failf "unexpected shape %s" (Algebra.to_string e)
  | None -> Alcotest.fail "rule did not fire"

let test_pushdown_setops () =
  check_rewrites "select distributes over union" Rewrite.select_pushdown_union
    Algebra.(select (c1 1) (union (base "R1") (base "S1")))
    Algebra.(union (select (c1 1) (base "R1")) (select (c1 1) (base "S1")));
  check_rewrites "select distributes over difference" Rewrite.select_pushdown_diff
    Algebra.(select (c1 1) (diff (base "R1") (base "S1")))
    Algebra.(diff (select (c1 1) (base "R1")) (select (c1 1) (base "S1")));
  check_rewrites "select distributes over intersection"
    Rewrite.select_pushdown_intersect
    Algebra.(select (c1 1) (intersect (base "R1") (base "S1")))
    Algebra.(intersect (select (c1 1) (base "R1")) (select (c1 1) (base "S1")))

let test_diff_pullup () =
  check_rewrites "(R - S) x T pulls the difference up" Rewrite.diff_pullup_product
    Algebra.(product (diff (base "R1") (base "S1")) (base "R2"))
    Algebra.(diff (product (base "R1") (base "R2")) (product (base "S1") (base "R2")));
  check_rewrites "T x (R - S) symmetric" Rewrite.diff_pullup_product
    Algebra.(product (base "R2") (diff (base "R1") (base "S1")))
    Algebra.(diff (product (base "R2") (base "R1")) (product (base "R2") (base "S1")))

let test_project_pushdown_union () =
  check_rewrites "project distributes over union" Rewrite.project_pushdown_union
    Algebra.(project [ 2 ] (union (base "R2") (base "S2")))
    Algebra.(union (project [ 2 ] (base "R2")) (project [ 2 ] (base "S2")))

let test_project_merge () =
  check_rewrites "pi(pi) composes" Rewrite.project_merge
    Algebra.(project [ 2; 1 ] (project [ 3; 1 ] (base "R3")))
    Algebra.(project [ 1; 3 ] (base "R3"))

let test_fixpoint_counts () =
  let e =
    Algebra.(select (c1 1) (select (c1 2) (project [ 1 ] (project [ 2; 1 ] (base "R2")))))
  in
  let rewritten, counts = Rewrite.rewrite ~env:arities e in
  Alcotest.(check bool) "select-merge fired" true
    (List.mem_assoc "select-merge" counts);
  Alcotest.(check bool) "project-merge fired" true
    (List.mem_assoc "project-merge" counts);
  (* Everything collapses to pi(sigma(R2)). *)
  (match rewritten with
   | Algebra.Project ([ 2 ], Algebra.Select (_, Algebra.Base "R2")) -> ()
   | e -> Alcotest.failf "unexpected normal form %s" (Algebra.to_string e))

let sample_taus = List.filter Time.is_finite Generators.sample_times

let prop_rewrite_preserves_semantics =
  Generators.qtest "rewriting preserves results at every time" ~count:300
    (Generators.expr_and_env ())
    (fun (e, bindings) ->
      let env_arity name = Option.map Relation.arity (List.assoc_opt name bindings) in
      let env = Eval.env_of_list bindings in
      let rewritten, _ = Rewrite.rewrite ~env:env_arity e in
      List.for_all
        (fun tau ->
          Relation.equal
            (Eval.relation_at ~env ~tau e)
            (Eval.relation_at ~env ~tau rewritten))
        sample_taus)

let prop_rewrite_never_hastens_recomputation =
  Generators.qtest "rewritten texp(e) >= original texp(e)" ~count:300
    (Generators.expr_and_env ())
    (fun (e, bindings) ->
      let env_arity name = Option.map Relation.arity (List.assoc_opt name bindings) in
      let env = Eval.env_of_list bindings in
      let rewritten, _ = Rewrite.rewrite ~env:env_arity e in
      List.for_all
        (fun tau ->
          Time.(
            (Eval.run ~env ~tau rewritten).Eval.texp
            >= (Eval.run ~env ~tau e).Eval.texp))
        sample_taus)

let suite =
  [ Alcotest.test_case "select merge" `Quick test_select_merge;
    Alcotest.test_case "select past project" `Quick test_select_past_project;
    Alcotest.test_case "conjunct split over product" `Quick
      test_select_pushdown_product;
    Alcotest.test_case "join predicate pushdown" `Quick test_join_predicate_pushdown;
    Alcotest.test_case "pushdown over set operators" `Quick test_pushdown_setops;
    Alcotest.test_case "difference pull-up (Section 3.1)" `Quick test_diff_pullup;
    Alcotest.test_case "project over union" `Quick test_project_pushdown_union;
    Alcotest.test_case "project merge" `Quick test_project_merge;
    Alcotest.test_case "fixpoint rewriting" `Quick test_fixpoint_counts;
    prop_rewrite_preserves_semantics;
    prop_rewrite_never_hastens_recomputation ]
