open Expirel_core
open Expirel_paper

let fin = Time.of_int

let test_basics () =
  let h = Heap.empty in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  let h = Heap.insert (fin 5) "a" h in
  let h = Heap.insert (fin 2) "b" h in
  let h = Heap.insert Time.Inf "c" h in
  Alcotest.(check int) "cardinal" 3 (Heap.cardinal h);
  (match Heap.min_opt h with
   | Some (t, v) ->
     Alcotest.(check string) "min key" "2" (Time.to_string t);
     Alcotest.(check string) "min value" "b" v
   | None -> Alcotest.fail "non-empty");
  let popped, h = Heap.pop_until (fin 5) h in
  Alcotest.(check (list string)) "pop_until order" [ "b"; "a" ] (List.map snd popped);
  Alcotest.(check int) "infinite key stays" 1 (Heap.cardinal h)

let entries_gen =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 40)
    (QCheck2.Gen.pair Generators.texp (QCheck2.Gen.int_range 0 1000))

let prop_sorted_drain =
  Generators.qtest "to_sorted_list is sorted by key" entries_gen (fun entries ->
      let sorted = Heap.to_sorted_list (Heap.of_list entries) in
      let keys = List.map fst sorted in
      List.length sorted = List.length entries
      && List.sort Time.compare keys = keys)

let prop_pop_until_boundary =
  Generators.qtest "pop_until splits at the bound"
    (QCheck2.Gen.pair entries_gen Generators.time_finite)
    (fun (entries, bound) ->
      let due, rest = Heap.pop_until bound (Heap.of_list entries) in
      List.for_all (fun (k, _) -> Time.(k <= bound)) due
      && Heap.fold (fun k _ ok -> ok && Time.(k > bound)) rest true
      && List.length due + Heap.cardinal rest = List.length entries)

let suite =
  [ Alcotest.test_case "insert/min/pop_until" `Quick test_basics;
    prop_sorted_drain;
    prop_pop_until_boundary ]
