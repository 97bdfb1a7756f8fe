open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int
let algorithms = [ "hash", Antijoin.Hash; "sort-merge", Antijoin.Sort_merge;
                   "nested-loop", Antijoin.Nested_loop ]

let pol1 = Relation.map_tuples ~arity:1 (Tuple.project [ 1 ]) News.figure1_pol
let el1 = Relation.map_tuples ~arity:1 (Tuple.project [ 1 ]) News.figure1_el

let test_paper_example () =
  List.iter
    (fun (name, alg) ->
      let d = Antijoin.diff alg pol1 el1 in
      Alcotest.(check int) (name ^ ": one tuple") 1 (Relation.cardinal d);
      Alcotest.(check bool) (name ^ ": <3>@10") true
        (Time.equal (Relation.texp d (Tuple.ints [ 3 ])) (fin 10));
      let critical = Antijoin.critical_tuples alg pol1 el1 in
      Alcotest.(check (list string)) (name ^ ": critical by texp_S")
        [ "<2>:3->15"; "<1>:5->10" ]
        (List.map
           (fun (t, e_s, e_r) ->
             Printf.sprintf "%s:%s->%s" (Tuple.to_string t) (Time.to_string e_s)
               (Time.to_string e_r))
           critical))
    algorithms

let test_arity_check () =
  List.iter
    (fun (name, alg) ->
      match Antijoin.diff alg pol1 News.figure1_el with
      | exception Errors.Arity_mismatch _ -> ()
      | _ -> Alcotest.failf "%s: expected arity error" name)
    algorithms

let rel_pair =
  QCheck2.Gen.pair (Generators.relation ~arity:2) (Generators.relation ~arity:2)

let prop_algorithms_agree =
  Generators.qtest "all algorithms produce the same difference" rel_pair
    (fun (r, s) ->
      let hash = Antijoin.diff Antijoin.Hash r s in
      Relation.equal hash (Antijoin.diff Antijoin.Sort_merge r s)
      && Relation.equal hash (Antijoin.diff Antijoin.Nested_loop r s))

let prop_matches_eval =
  Generators.qtest "antijoin = the algebra's difference" rel_pair (fun (r, s) ->
      let env = Eval.env_of_list [ "R", r; "S", s ] in
      (* Compare at time -1 so no tuple has expired yet and the algebra
         result equals the raw relation-level difference. *)
      let reference =
        Eval.relation_at ~env ~tau:(Time.of_int (-1))
          Algebra.(diff (base "R") (base "S"))
      in
      Relation.equal reference (Antijoin.diff Antijoin.Hash r s))

let prop_criticals_match_patch_queue =
  Generators.qtest "critical tuples = the patch queue's contents" rel_pair
    (fun (r, s) ->
      let criticals = Antijoin.critical_tuples Antijoin.Hash r s in
      let live =
        List.filter (fun (_, e_s, _) -> Time.(e_s > Time.zero)) criticals
      in
      let env = Eval.env_of_list [ "R", Relation.exp Time.zero r;
                                   "S", Relation.exp Time.zero s ] in
      let p =
        Patch.create ~env ~tau:Time.zero ~left:(Algebra.base "R")
          ~right:(Algebra.base "S")
      in
      (* Entries whose appearance time has not yet passed at time 0. *)
      Patch.pending p
      = List.length
          (List.filter
             (fun (t, _, e_r) ->
               Time.(e_r > Time.zero) && Relation.mem t (Relation.exp Time.zero s))
             live))

let suite =
  [ Alcotest.test_case "paper example on all algorithms" `Quick test_paper_example;
    Alcotest.test_case "arity checking" `Quick test_arity_check;
    prop_algorithms_agree;
    prop_matches_eval;
    prop_criticals_match_patch_queue ]
