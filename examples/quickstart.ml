(* Quickstart: the paper's running example, end to end.

   Builds the Figure 1 relations, evaluates monotonic and non-monotonic
   expressions over time, shows expression expiration times, Schrödinger
   validity intervals, and difference patching.

   Run with: dune exec examples/quickstart.exe *)

open Expirel_core
open Expirel_paper
open Expirel_workload

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  section "Figure 1: base relations with expiration times";
  print_endline (Explain.relation_table ~title:"Pol (politics)"
                   ~columns:News.columns News.figure1_pol);
  print_endline (Explain.relation_table ~title:"El (elections)"
                   ~columns:News.columns News.figure1_el);

  let env = News.figure1_env in

  section "A monotonic query: who is interested in both topics?";
  let join = Algebra.(join (Predicate.eq_cols 1 3) (base "Pol") (base "El")) in
  print_endline
    (Explain.snapshots ~env ~times:(List.map Time.of_int [ 0; 3; 5 ]) join);
  let { Eval.texp; _ } = Eval.run ~env ~tau:Time.zero join in
  Printf.printf
    "texp(e) = %s: the materialised join never needs recomputation —\n\
     its tuples simply expire in place (Theorem 1).\n"
    (Time.to_string texp);

  section "A non-monotonic query: interest histogram (Figure 3a)";
  let histogram =
    Algebra.(project [ 2; 3 ] (aggregate [ 2 ] Aggregate.Count (base "Pol")))
  in
  let { Eval.relation; texp } = Eval.run ~env ~tau:Time.zero histogram in
  print_endline (Explain.relation_table ~columns:[ "deg"; "count" ] relation);
  Printf.printf
    "texp(e) = %s: at that time a count changes while its partition\n\
     lives on, so the materialisation must be recomputed.\n"
    (Time.to_string texp);

  section "A growing difference (Figure 3b-d)";
  let difference =
    Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))
  in
  print_endline
    (Explain.snapshots ~env ~times:(List.map Time.of_int [ 0; 3; 5 ]) difference);
  Printf.printf "texp(e) = %s (tuple <2> must reappear then)\n"
    (Time.to_string (Eval.expression_texp ~env ~tau:Time.zero difference));

  section "Schrödinger validity intervals (Section 3.3)";
  let validity = Validity.expression_validity ~env ~tau:Time.zero difference in
  Printf.printf "I(e) = %s\n" (Interval_set.to_string validity);
  List.iter
    (fun tau ->
      let answer =
        match Validity.observe ~policy:Validity.Prefer_delay ~validity (Time.of_int tau) with
        | Validity.Answer_now -> "answer from the materialisation"
        | Validity.Move_backward t -> "answer as of time " ^ Time.to_string t
        | Validity.Delay_until t -> "delay until time " ^ Time.to_string t
        | Validity.Recompute -> "recompute"
      in
      Printf.printf "  query at %2d -> %s\n" tau answer)
    [ 1; 7; 20 ];

  section "Patching the difference (Theorem 3)";
  let patched =
    ref (Patch.create ~env ~tau:Time.zero
           ~left:Algebra.(project [ 1 ] (base "Pol"))
           ~right:Algebra.(project [ 1 ] (base "El")))
  in
  Printf.printf "helper queue holds %d critical tuple(s)\n" (Patch.pending !patched);
  List.iter
    (fun tau ->
      let served, next = Patch.read !patched ~tau:(Time.of_int tau) in
      patched := next;
      let fresh = Eval.relation_at ~env ~tau:(Time.of_int tau) difference in
      Printf.printf "  t=%2d patched view %s recomputation (%d tuples)\n" tau
        (if Relation.equal served fresh then "=" else "<>")
        (Relation.cardinal served))
    [ 0; 3; 5; 10; 15 ];
  print_endline "No recomputation ever happened: the view patched itself."
