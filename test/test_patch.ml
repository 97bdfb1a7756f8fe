open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int
let env = News.figure1_env
let left = Algebra.(project [ 1 ] (base "Pol"))
let right = Algebra.(project [ 1 ] (base "El"))

let test_queue_contents () =
  let p = Patch.create ~env ~tau:Time.zero ~left ~right in
  (* Critical tuples: <1> (10 > 5) and <2> (15 > 3); <4> is in El only. *)
  Alcotest.(check int) "two pending patches" 2 (Patch.pending p);
  Alcotest.(check (option string)) "earliest patch at texp_S = 3" (Some "3")
    (Option.map Time.to_string (Patch.next_patch_at p))

let test_paper_timeline () =
  let p = ref (Patch.create ~env ~tau:Time.zero ~left ~right) in
  let read tau =
    let r, next = Patch.read !p ~tau:(fin tau) in
    p := next;
    List.map (fun (t, e) -> Tuple.to_string t ^ "@" ^ Time.to_string e)
      (Relation.to_list r)
  in
  Alcotest.(check (list string)) "at 0" [ "<3>@10" ] (read 0);
  Alcotest.(check (list string)) "at 3: <2> patched in" [ "<2>@15"; "<3>@10" ] (read 3);
  Alcotest.(check (list string)) "at 5: <1> patched in"
    [ "<1>@10"; "<2>@15"; "<3>@10" ] (read 5);
  Alcotest.(check (list string)) "at 12: <1>,<3> expired" [ "<2>@15" ] (read 12);
  Alcotest.(check (list string)) "at 15: all gone" [] (read 15);
  Alcotest.(check int) "queue drained" 0 (Patch.pending !p)

let test_backwards_rejected () =
  let p = Patch.create ~env ~tau:(fin 5) ~left ~right in
  Alcotest.check_raises "advance backwards"
    (Invalid_argument "Patch.advance: moving backwards") (fun () ->
      ignore (Patch.advance p ~to_:(fin 2)))

let test_arity_check () =
  Alcotest.check_raises "union-incompatible operands"
    (Errors.Arity_mismatch "Patch.create: 1 vs 2") (fun () ->
      ignore (Patch.create ~env ~tau:Time.zero ~left ~right:(Algebra.base "El")))

let test_peek_pure () =
  let p = Patch.create ~env ~tau:Time.zero ~left ~right in
  let a = Patch.peek p ~tau:(fin 5) in
  let b = Patch.peek p ~tau:(fin 5) in
  Alcotest.(check bool) "peek does not consume" true (Relation.equal a b);
  Alcotest.(check int) "state untouched" 2 (Patch.pending p)

let prop_pending_bounded_by_intersection =
  Generators.qtest "queue size <= |R n S|" ~count:200
    (QCheck2.Gen.pair (Generators.relation ~arity:2) (Generators.relation ~arity:2))
    (fun (r, s) ->
      let env = Eval.env_of_list [ "R", r; "S", s ] in
      let p =
        Patch.create ~env ~tau:Time.zero ~left:(Algebra.base "R")
          ~right:(Algebra.base "S")
      in
      let inter =
        Eval.relation_at ~env ~tau:Time.zero Algebra.(intersect (base "R") (base "S"))
      in
      Patch.pending p <= Relation.cardinal inter)

let prop_advance_monotone_state =
  Generators.qtest "advance is cumulative: stepwise = direct" ~count:200
    (QCheck2.Gen.pair (Generators.relation ~arity:1) (Generators.relation ~arity:1))
    (fun (r, s) ->
      let env = Eval.env_of_list [ "R", r; "S", s ] in
      let fresh () =
        Patch.create ~env ~tau:Time.zero ~left:(Algebra.base "R")
          ~right:(Algebra.base "S")
      in
      let stepped =
        List.fold_left
          (fun p tau -> Patch.advance p ~to_:(fin tau))
          (fresh ()) [ 2; 5; 9; 16 ]
      in
      let direct = Patch.advance (fresh ()) ~to_:(fin 16) in
      Relation.equal
        (fst (Patch.read stepped ~tau:(fin 16)))
        (fst (Patch.read direct ~tau:(fin 16))))

let suite =
  [ Alcotest.test_case "helper queue (Section 3.4.2)" `Quick test_queue_contents;
    Alcotest.test_case "paper example timeline" `Quick test_paper_timeline;
    Alcotest.test_case "time only moves forward" `Quick test_backwards_rejected;
    Alcotest.test_case "arity checking" `Quick test_arity_check;
    Alcotest.test_case "peek is pure" `Quick test_peek_pure;
    prop_pending_bounded_by_intersection;
    prop_advance_monotone_state ]
