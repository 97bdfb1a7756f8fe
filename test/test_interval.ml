open Expirel_core
open Expirel_paper

let fin = Time.of_int
let iv a b = Interval.make (fin a) (fin b)

let test_make () =
  let i = iv 2 5 in
  Alcotest.(check bool) "lo" true (Time.equal (fst (Interval.bounds i)) (fin 2));
  Alcotest.(check bool) "hi" true (Time.equal (snd (Interval.bounds i)) (fin 5));
  Alcotest.check_raises "empty interval rejected"
    (Invalid_argument "Interval.make: [5, 5[ is empty") (fun () ->
      ignore (Interval.make (fin 5) (fin 5)));
  Alcotest.(check bool) "make_opt empty" true (Interval.make_opt (fin 5) (fin 3) = None)

let test_mem () =
  let i = iv 2 5 in
  Alcotest.(check bool) "lo included" true (Interval.mem (fin 2) i);
  Alcotest.(check bool) "hi excluded" false (Interval.mem (fin 5) i);
  Alcotest.(check bool) "inside" true (Interval.mem (fin 4) i);
  Alcotest.(check bool) "unbounded" true
    (Interval.mem (fin 1000) (Interval.from (fin 3)));
  Alcotest.(check bool) "inf not member of bounded" false
    (Interval.mem Time.Inf (iv 0 100));
  Alcotest.(check bool) "inf member of unbounded" true
    (Interval.mem Time.Inf (Interval.from (fin 0)))

let test_set_ops () =
  Alcotest.(check bool) "overlap" true (Interval.overlaps (iv 0 5) (iv 4 9));
  Alcotest.(check bool) "no overlap when adjacent" false
    (Interval.overlaps (iv 0 5) (iv 5 9));
  Alcotest.(check bool) "adjacent" true (Interval.adjacent (iv 0 5) (iv 5 9));
  (match Interval.inter (iv 0 5) (iv 3 9) with
   | Some i -> Alcotest.(check bool) "inter" true (Interval.equal i (iv 3 5))
   | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "disjoint inter" true (Interval.inter (iv 0 2) (iv 3 4) = None);
  (match Interval.union (iv 0 5) (iv 5 9) with
   | Some i -> Alcotest.(check bool) "adjacent union merges" true (Interval.equal i (iv 0 9))
   | None -> Alcotest.fail "expected union");
  Alcotest.(check bool) "disjoint union is not an interval" true
    (Interval.union (iv 0 2) (iv 3 4) = None);
  Alcotest.(check bool) "subset" true (Interval.subset (iv 2 4) (iv 0 9));
  Alcotest.(check bool) "not subset" false (Interval.subset (iv 2 14) (iv 0 9))

let test_duration () =
  Alcotest.(check bool) "finite" true (Time.equal (Interval.duration (iv 3 10)) (fin 7));
  Alcotest.(check bool) "unbounded" true
    (Time.equal (Interval.duration (Interval.from (fin 3))) Time.Inf)

let pair_gen = QCheck2.Gen.pair Generators.interval Generators.interval

let prop_inter_is_conjunction =
  Generators.qtest "membership of inter = both" pair_gen (fun (a, b) ->
      List.for_all
        (fun t ->
          let in_inter =
            match Interval.inter a b with
            | Some i -> Interval.mem t i
            | None -> false
          in
          in_inter = (Interval.mem t a && Interval.mem t b))
        Generators.sample_times)

let prop_union_is_disjunction =
  Generators.qtest "membership of union = either (when defined)" pair_gen
    (fun (a, b) ->
      match Interval.union a b with
      | None -> true
      | Some u ->
        (* Union is only defined for overlapping/adjacent intervals, in
           which case coverage is exactly the disjunction. *)
        List.for_all
          (fun t -> Interval.mem t u = (Interval.mem t a || Interval.mem t b))
          Generators.sample_times)

let suite =
  [ Alcotest.test_case "construction" `Quick test_make;
    Alcotest.test_case "membership (half-open)" `Quick test_mem;
    Alcotest.test_case "inter/union/subset/adjacent" `Quick test_set_ops;
    Alcotest.test_case "duration" `Quick test_duration;
    prop_inter_is_conjunction;
    prop_union_is_disjunction ]
