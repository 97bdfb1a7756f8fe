open Expirel_baselines

let test_basics () =
  let h = Binary_heap.create () in
  Alcotest.(check bool) "empty" true (Binary_heap.is_empty h);
  Binary_heap.push h 5 100;
  Binary_heap.push h 2 200;
  Binary_heap.push h 5 50;
  Alcotest.(check int) "size" 3 (Binary_heap.size h);
  Alcotest.(check (option (pair int int))) "peek" (Some (2, 200)) (Binary_heap.peek h);
  Alcotest.(check (option (pair int int))) "pop min" (Some (2, 200)) (Binary_heap.pop h);
  Alcotest.(check (option (pair int int))) "ties by id" (Some (5, 50)) (Binary_heap.pop h);
  Alcotest.(check (option (pair int int))) "last" (Some (5, 100)) (Binary_heap.pop h);
  Alcotest.(check (option (pair int int))) "drained" None (Binary_heap.pop h)

let test_pop_until () =
  let h = Binary_heap.create () in
  List.iter (fun (t, id) -> Binary_heap.push h t id)
    [ 9, 1; 3, 2; 7, 3; 1, 4; 12, 5 ];
  Alcotest.(check (list (pair int int))) "due through 7"
    [ 1, 4; 3, 2; 7, 3 ]
    (Binary_heap.pop_until h 7);
  Alcotest.(check int) "rest" 2 (Binary_heap.size h);
  Binary_heap.clear h;
  Alcotest.(check bool) "cleared" true (Binary_heap.is_empty h)

let test_growth () =
  let h = Binary_heap.create ~capacity:1 () in
  for i = 100 downto 1 do
    Binary_heap.push h i i
  done;
  Alcotest.(check int) "all inserted" 100 (Binary_heap.size h);
  Alcotest.(check (option (pair int int))) "min after growth" (Some (1, 1))
    (Binary_heap.peek h)

let ops_gen =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 100)
    (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 50) (QCheck2.Gen.int_range 0 1000))

let prop_heap_sorts =
  Generators.qtest "draining yields sorted (time, id) pairs" ops_gen (fun entries ->
      let h = Binary_heap.create () in
      List.iter (fun (t, id) -> Binary_heap.push h t id) entries;
      let drained = Binary_heap.pop_until h max_int in
      drained = List.sort compare entries)

let suite =
  [ Alcotest.test_case "push/peek/pop ordering" `Quick test_basics;
    Alcotest.test_case "pop_until" `Quick test_pop_until;
    Alcotest.test_case "dynamic growth" `Quick test_growth;
    prop_heap_sorts ]
