open Expirel_core
open Expirel_paper

let fin = Time.of_int
let iv a b = Interval.make (fin a) (fin b)

let covered s = List.filter (fun t -> Interval_set.mem t s) Generators.sample_times

let test_normalisation () =
  let s = Interval_set.of_list [ iv 0 3; iv 2 5; iv 5 7; iv 10 12 ] in
  Alcotest.(check int) "merged to two intervals" 2 (Interval_set.cardinal s);
  let expected = Interval_set.of_list [ iv 0 7; iv 10 12 ] in
  Alcotest.(check bool) "normal form equal" true (Interval_set.equal s expected)

let test_mem_empty_full () =
  Alcotest.(check bool) "empty has no members" false
    (Interval_set.mem (fin 0) Interval_set.empty);
  Alcotest.(check bool) "full from zero" true
    (Interval_set.mem (fin 0) Interval_set.full);
  Alcotest.(check bool) "full contains inf" true
    (Interval_set.mem Time.Inf Interval_set.full)

let test_gaps () =
  let s = Interval_set.of_list [ iv 0 3; iv 10 12 ] in
  Alcotest.(check (option string)) "gap after 0" (Some "3")
    (Option.map Time.to_string (Interval_set.first_gap_after (fin 0) s));
  Alcotest.(check (option string)) "gap at 5" (Some "5")
    (Option.map Time.to_string (Interval_set.first_gap_after (fin 5) s));
  Alcotest.(check (option string)) "next covered after 5" (Some "10")
    (Option.map Time.to_string (Interval_set.next_covered_after (fin 5) s));
  Alcotest.(check (option string)) "next covered inside" (Some "11")
    (Option.map Time.to_string (Interval_set.next_covered_after (fin 11) s));
  Alcotest.(check bool) "no covered after end" true
    (Interval_set.next_covered_after (fin 20) s = None);
  let unbounded = Interval_set.of_interval (Interval.from (fin 4)) in
  Alcotest.(check bool) "no gap in unbounded tail" true
    (Interval_set.first_gap_after (fin 9) unbounded = None)

let test_duration () =
  let s = Interval_set.of_list [ iv 0 3; iv 10 12 ] in
  Alcotest.(check bool) "total 5" true
    (Time.equal (Interval_set.total_duration s) (fin 5));
  let u = Interval_set.add (Interval.from (fin 100)) s in
  Alcotest.(check bool) "unbounded" true
    (Time.equal (Interval_set.total_duration u) Time.Inf)

let pair_gen = QCheck2.Gen.pair Generators.interval_set Generators.interval_set

let pointwise name op law =
  Generators.qtest name pair_gen (fun (a, b) ->
      List.for_all
        (fun t ->
          Interval_set.mem t (op a b) = law (Interval_set.mem t a) (Interval_set.mem t b))
        Generators.sample_times)

let prop_union = pointwise "union is pointwise or" Interval_set.union ( || )
let prop_inter = pointwise "inter is pointwise and" Interval_set.inter ( && )
let prop_diff =
  pointwise "diff is pointwise and-not" Interval_set.diff (fun x y -> x && not y)

let prop_complement =
  Generators.qtest "complement within full flips membership"
    Generators.interval_set (fun s ->
      let c = Interval_set.complement ~within:(Interval.from Time.zero) s in
      List.for_all
        (fun t -> Interval_set.mem t c = not (Interval_set.mem t s))
        Generators.sample_times)

let prop_normal_form_unique =
  Generators.qtest "same points => equal normal forms" pair_gen (fun (a, b) ->
      let same_points =
        List.for_all
          (fun t -> Interval_set.mem t a = Interval_set.mem t b)
          Generators.sample_times
      in
      (* Sample times cover the whole generator range densely enough that
         same points means same set. *)
      (not same_points) || Interval_set.equal a b)

let prop_intervals_disjoint_sorted =
  Generators.qtest "normal form is sorted, disjoint, non-adjacent"
    Generators.interval_set (fun s ->
      let rec ok = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) ->
          Time.(a.Interval.hi < b.Interval.lo) && ok rest
      in
      ok (Interval_set.to_list s))

let prop_covered_monotone_under_union =
  Generators.qtest "union only adds coverage" pair_gen (fun (a, b) ->
      let u = Interval_set.union a b in
      List.for_all (fun t -> Interval_set.mem t u) (covered a))

let suite =
  [ Alcotest.test_case "normalisation merges overlap and adjacency" `Quick
      test_normalisation;
    Alcotest.test_case "empty and full" `Quick test_mem_empty_full;
    Alcotest.test_case "gap and coverage queries" `Quick test_gaps;
    Alcotest.test_case "total duration" `Quick test_duration;
    prop_union;
    prop_inter;
    prop_diff;
    prop_complement;
    prop_normal_form_unique;
    prop_intervals_disjoint_sorted;
    prop_covered_monotone_under_union ]
