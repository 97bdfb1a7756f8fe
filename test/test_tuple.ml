open Expirel_core

let test_attr_1_based () =
  let t = Tuple.ints [ 10; 20; 30 ] in
  Alcotest.(check bool) "t(1)" true (Value.equal (Tuple.attr t 1) (Value.int 10));
  Alcotest.(check bool) "t(3)" true (Value.equal (Tuple.attr t 3) (Value.int 30));
  Alcotest.check_raises "position 0 rejected"
    (Invalid_argument "Tuple.attr: position 0 outside 1..3") (fun () ->
      ignore (Tuple.attr t 0));
  Alcotest.check_raises "position 4 rejected"
    (Invalid_argument "Tuple.attr: position 4 outside 1..3") (fun () ->
      ignore (Tuple.attr t 4))

let test_project () =
  let t = Tuple.ints [ 10; 20; 30 ] in
  Alcotest.(check bool) "reorder and repeat" true
    (Tuple.equal (Tuple.project [ 3; 1; 3 ] t) (Tuple.ints [ 30; 10; 30 ]))

let test_concat_split () =
  let r = Tuple.ints [ 1; 2 ] and s = Tuple.ints [ 3 ] in
  let c = Tuple.concat r s in
  Alcotest.(check int) "arity" 3 (Tuple.arity c);
  let l, rr = Tuple.split ~left_arity:2 c in
  Alcotest.(check bool) "left" true (Tuple.equal l r);
  Alcotest.(check bool) "right" true (Tuple.equal rr s)

let test_compare () =
  Alcotest.(check bool) "shorter first" true
    (Tuple.compare (Tuple.ints [ 9 ]) (Tuple.ints [ 0; 0 ]) < 0);
  Alcotest.(check bool) "lexicographic" true
    (Tuple.compare (Tuple.ints [ 1; 2 ]) (Tuple.ints [ 1; 3 ]) < 0)

(* A comparison runs a closed loop: 10^4 compares and equalities of
   equal 3-column tuples allocate under one minor word each. *)
let test_compare_allocates_nothing () =
  let a = Tuple.ints [ 1; 2; 3 ] and b = Tuple.ints [ 1; 2; 3 ] in
  let n = 10_000 in
  let words f =
    let before = Gc.minor_words () in
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + f ()
    done;
    let after = Gc.minor_words () in
    Alcotest.(check int) "all equal" 0 !acc;
    (after -. before) /. float_of_int n
  in
  let per_compare = words (fun () -> Tuple.compare a b) in
  Alcotest.(check bool)
    (Printf.sprintf "compare: %.2f minor words each" per_compare)
    true (per_compare < 1.);
  let per_equal = words (fun () -> if Tuple.equal a b then 0 else 1) in
  Alcotest.(check bool)
    (Printf.sprintf "equal: %.2f minor words each" per_equal)
    true (per_equal < 1.)

let test_printing () =
  Alcotest.(check string) "paper style" "<1, 25>" (Tuple.to_string (Tuple.ints [ 1; 25 ]))

let tuple3 = Generators.tuple ~arity:3

let prop_project_identity =
  Generators.qtest "projecting all positions is identity" tuple3 (fun t ->
      Tuple.equal (Tuple.project [ 1; 2; 3 ] t) t)

let prop_concat_split_roundtrip =
  Generators.qtest "split inverts concat"
    (QCheck2.Gen.pair (Generators.tuple ~arity:2) tuple3)
    (fun (a, b) ->
      let l, r = Tuple.split ~left_arity:2 (Tuple.concat a b) in
      Tuple.equal l a && Tuple.equal r b)

let prop_mutation_safe =
  Generators.qtest "of_array copies" (Generators.tuple ~arity:2) (fun t ->
      let arr = Array.of_list (Tuple.to_list t) in
      let u = Tuple.of_array arr in
      arr.(0) <- Value.int 999999;
      Tuple.equal u t)

let suite =
  [ Alcotest.test_case "1-based attribute access" `Quick test_attr_1_based;
    Alcotest.test_case "projection" `Quick test_project;
    Alcotest.test_case "concat and split" `Quick test_concat_split;
    Alcotest.test_case "ordering" `Quick test_compare;
    Alcotest.test_case "compare allocates nothing" `Quick test_compare_allocates_nothing;
    Alcotest.test_case "printing" `Quick test_printing;
    prop_project_identity;
    prop_concat_split_roundtrip;
    prop_mutation_safe ]
