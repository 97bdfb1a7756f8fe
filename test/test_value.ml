open Expirel_core

let test_compare_total () =
  Alcotest.(check bool) "int order" true (Value.compare (Value.int 1) (Value.int 2) < 0);
  Alcotest.(check bool) "str order" true
    (Value.compare (Value.str "a") (Value.str "b") < 0);
  Alcotest.(check bool) "null smallest" true
    (Value.compare Value.Null (Value.bool false) < 0);
  Alcotest.(check bool) "cross-type by tag" true
    (Value.compare (Value.bool true) (Value.int 0) < 0);
  Alcotest.(check bool) "equal" true (Value.equal (Value.int 3) (Value.int 3))

let test_cmp_sql () =
  Alcotest.(check (option int)) "null incomparable" None
    (Value.cmp Value.Null (Value.int 1));
  Alcotest.(check (option int)) "int vs str incomparable" None
    (Value.cmp (Value.int 1) (Value.str "1"));
  Alcotest.(check (option int)) "int float mix" (Some 0)
    (Value.cmp (Value.int 2) (Value.float 2.0));
  Alcotest.(check bool) "int lt" true
    (match Value.cmp (Value.int 1) (Value.int 5) with
     | Some c -> c < 0
     | None -> false)

let test_add () =
  Alcotest.(check bool) "int add" true
    (Value.equal (Value.add (Value.int 2) (Value.int 3)) (Value.int 5));
  Alcotest.(check bool) "mixed add is float" true
    (Value.equal (Value.add (Value.int 2) (Value.float 0.5)) (Value.float 2.5));
  Alcotest.(check bool) "null absorbs" true
    (Value.is_null (Value.add Value.Null (Value.int 3)));
  Alcotest.check_raises "string add rejected"
    (Invalid_argument "Value.add: non-numeric operand") (fun () ->
      ignore (Value.add (Value.str "a") (Value.int 1)))

let test_to_float () =
  Alcotest.(check (option (float 0.0))) "int" (Some 3.) (Value.to_float (Value.int 3));
  Alcotest.(check (option (float 0.0))) "str" None (Value.to_float (Value.str "x"))

let prop_compare_antisym =
  Generators.qtest "compare antisymmetric"
    (QCheck2.Gen.pair Generators.small_value Generators.small_value)
    (fun (a, b) ->
      let c = Value.compare a b and c' = Value.compare b a in
      (c = 0) = (c' = 0) && (c < 0) = (c' > 0))

let prop_hash_respects_equal =
  Generators.qtest "equal values hash equally"
    (QCheck2.Gen.pair Generators.small_value Generators.small_value)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* Hashed grouping relies on Value.hash agreeing with Value.compare on
   the floats where IEEE equality and bit identity part ways: 0.0 and
   -0.0 compare equal, and so does every NaN payload. *)
let test_hash_float_edges () =
  let classes =
    [ [ 0.0; -0.0 ];
      [ Float.nan; -.Float.nan; Int64.float_of_bits 0x7ff8000000000abcL;
        Int64.float_of_bits 0x7ff0000000000001L ] ]
  in
  List.iter
    (fun cls ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let a = Value.Float a and b = Value.Float b in
              Alcotest.(check bool) "compare-equal" true (Value.equal a b);
              Alcotest.(check int) "same hash" (Value.hash a) (Value.hash b))
            cls)
        cls)
    classes

let suite =
  [ Alcotest.test_case "total order" `Quick test_compare_total;
    Alcotest.test_case "SQL-style cmp" `Quick test_cmp_sql;
    Alcotest.test_case "numeric add" `Quick test_add;
    Alcotest.test_case "to_float" `Quick test_to_float;
    prop_compare_antisym;
    prop_hash_respects_equal;
    Alcotest.test_case "hash agrees with compare on ±0.0 and NaNs" `Quick
      test_hash_float_edges ]
