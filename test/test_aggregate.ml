open Expirel_core
open Expirel_paper

let fin = Time.of_int

let member vs texp = Tuple.ints vs, fin texp
let imember vs = Tuple.ints vs, Time.Inf

(* Reference implementation of the aggregate value at time tau: apply f
   to the live members, None when empty. *)
let value_at f members tau =
  match List.filter (fun (_, e) -> Time.(e > tau)) members with
  | [] -> None
  | live -> Some (Aggregate.apply f live)

let value_opt_equal a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Value.equal x y
  | None, Some _ | Some _, None -> false

(* Brute-force nu: scan every tick. *)
let brute_nu ~tau f members =
  let v0 = value_at f members tau in
  let horizon = Generators.max_finite_time + 2 in
  let rec scan t =
    if t > horizon then Time.Inf
    else if not (value_opt_equal (value_at f members (fin t)) v0) then fin t
    else scan (t + 1)
  in
  match Time.to_int_opt tau with
  | Some t0 -> scan t0
  | None -> Time.Inf

let test_apply () =
  let p = [ member [ 1; 5 ] 10; member [ 2; 7 ] 20; member [ 3; 0 ] 5 ] in
  let check name f expected =
    Alcotest.(check string) name expected (Value.to_string (Aggregate.apply f p))
  in
  check "count" Aggregate.Count "3";
  check "sum" (Aggregate.Sum 2) "12";
  check "min" (Aggregate.Min 2) "0";
  check "max" (Aggregate.Max 2) "7";
  check "avg" (Aggregate.Avg 2) "4";
  Alcotest.check_raises "empty partition"
    (Invalid_argument "Aggregate.apply: empty partition") (fun () ->
      ignore (Aggregate.apply Aggregate.Count []))

let test_apply_nulls () =
  let p = [ Tuple.of_list [ Value.Null ], fin 9; Tuple.of_list [ Value.int 4 ], fin 9 ] in
  Alcotest.(check string) "count counts all" "2"
    (Value.to_string (Aggregate.apply Aggregate.Count p));
  Alcotest.(check string) "sum skips nulls" "4"
    (Value.to_string (Aggregate.apply (Aggregate.Sum 1) p));
  Alcotest.(check string) "avg over non-null" "4"
    (Value.to_string (Aggregate.apply (Aggregate.Avg 1) p));
  let all_null = [ Tuple.of_list [ Value.Null ], fin 9 ] in
  Alcotest.(check bool) "sum of nothing is null" true
    (Value.is_null (Aggregate.apply (Aggregate.Sum 1) all_null))

let test_partitions () =
  let r =
    Relation.of_list ~arity:2
      [ Tuple.ints [ 1; 25 ], fin 10;
        Tuple.ints [ 2; 25 ], fin 15;
        Tuple.ints [ 3; 35 ], fin 10 ]
  in
  let parts = Aggregate.partitions ~group:[ 2 ] r in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  let sizes = List.map (fun (_, ms) -> List.length ms) parts in
  Alcotest.(check (list int)) "sizes" [ 2; 1 ] sizes;
  let p25 = Aggregate.partition_of ~group:[ 2 ] r (Tuple.ints [ 9; 25 ]) in
  Alcotest.(check int) "partition_of matches on group attrs" 2 (List.length p25)

let test_figure3a_histogram_partition () =
  (* Partition of degree 25 in Pol: count changes at 10 although the
     partition lives until 15 — the Figure 3(a) invalidation. *)
  let p = [ member [ 1; 25 ] 10; member [ 2; 25 ] 15 ] in
  Alcotest.(check string) "nu at 0" "10"
    (Time.to_string (Aggregate.nu ~tau:Time.zero Aggregate.Count p));
  Alcotest.(check string) "empties at 15" "15"
    (Time.to_string (Aggregate.empties_at p))

let test_neutral_min () =
  (* Table 1, min: non-minimal tuples are neutral; minimal tuples other
     than the longest-lived minimal one are neutral. *)
  let p = [ member [ 1; 3 ] 5; member [ 2; 3 ] 10; member [ 3; 9 ] 2 ] in
  let removed, contributing =
    Aggregate.neutral_slices ~tau:Time.zero (Aggregate.Min 2) p
  in
  Alcotest.(check int) "two neutral slices (texp 2 and 5)" 2 (List.length removed);
  Alcotest.(check int) "one contributing tuple" 1 (List.length contributing);
  Alcotest.(check string) "neutral strategy extends to 10" "10"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero (Aggregate.Min 2) p));
  Alcotest.(check string) "conservative stops at 2" "2"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Conservative ~tau:Time.zero (Aggregate.Min 2) p))

let test_neutral_max () =
  let p = [ member [ 1; 9 ] 5; member [ 2; 9 ] 10; member [ 3; 1 ] 2 ] in
  Alcotest.(check string) "max extends to 10" "10"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero (Aggregate.Max 2) p))

let test_neutral_sum_zero_slice () =
  (* Table 1, sum: a time slice summing to zero is neutral. *)
  let p = [ member [ 1; 2 ] 5; member [ 2; -2 ] 5; member [ 3; 7 ] 12 ] in
  Alcotest.(check string) "zero slice skipped" "12"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero (Aggregate.Sum 2) p));
  let q = [ member [ 1; 3 ] 5; member [ 3; 7 ] 12 ] in
  Alcotest.(check string) "non-zero slice contributes" "5"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero (Aggregate.Sum 2) q))

let test_neutral_sum_all_zero () =
  (* C_f_P empty: the value stays valid until the whole partition
     expires (the paper's sum-of-zeros example). *)
  let p = [ member [ 1; 0 ] 5; member [ 2; 0 ] 12 ] in
  Alcotest.(check string) "all-neutral gives max texp" "12"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero (Aggregate.Sum 2) p))

let test_neutral_avg () =
  (* Table 1, avg: a slice whose average equals the partition average. *)
  let p = [ member [ 1; 2 ] 5; member [ 2; 4 ] 5; member [ 3; 3 ] 12 ] in
  Alcotest.(check string) "avg-neutral slice skipped" "12"
    (Time.to_string
       (Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero (Aggregate.Avg 2) p))

let test_count_strictly_conservative () =
  (* "improves on the expiration times of all aggregates except count" *)
  let p = [ member [ 1; 0 ] 5; member [ 2; 0 ] 12 ] in
  let texp_of s = Aggregate.result_texp s ~tau:Time.zero Aggregate.Count p in
  Alcotest.(check string) "conservative" "5" (Time.to_string (texp_of Aggregate.Conservative));
  Alcotest.(check string) "neutral = conservative" "5"
    (Time.to_string (texp_of Aggregate.Neutral));
  Alcotest.(check string) "exact = conservative" "5"
    (Time.to_string (texp_of Aggregate.Exact))

let test_timeline_and_windows () =
  let p = [ member [ 1; 3 ] 5; member [ 2; -3 ] 7; member [ 3; 10 ] 9 ] in
  (* sum: 10 -> 7 (at 5) -> 10 (at 7!) -> empty (at 9) *)
  let timeline = Aggregate.timeline ~tau:Time.zero (Aggregate.Sum 2) p in
  let render (t, v) =
    Printf.sprintf "%s:%s" (Time.to_string t)
      (match v with
       | Some x -> Value.to_string x
       | None -> "-")
  in
  Alcotest.(check (list string)) "timeline"
    [ "0:10"; "5:7"; "7:10"; "9:-" ]
    (List.map render timeline);
  let windows = Validity.aggregate_windows ~tau:Time.zero (Aggregate.Sum 2) p in
  (* Valid where value = 10 again, and after the partition expires. *)
  Alcotest.(check string) "I_R(t) includes the return window"
    "[0, 5[ u [7, inf[" (Interval_set.to_string windows)

let partition_gen =
  QCheck2.Gen.pair (Generators.agg_func ~arity:2) (Generators.partition ~arity:2)

let live_partitions (f, p) =
  match List.filter (fun (_, e) -> Time.(e > Time.zero)) p with
  | [] -> None
  | live -> Some (f, live)

let prop_nu_matches_brute_force =
  Generators.qtest "nu = brute-force first change" ~count:400 partition_gen
    (fun (f, p) ->
      Time.equal (Aggregate.nu ~tau:Time.zero f p) (brute_nu ~tau:Time.zero f p))

let prop_strategy_ordering =
  Generators.qtest "Conservative <= Neutral <= Exact" ~count:400 partition_gen
    (fun fp ->
      match live_partitions fp with
      | None -> true
      | Some (f, p) ->
        let t s = Aggregate.result_texp s ~tau:Time.zero f p in
        Time.(t Aggregate.Conservative <= t Aggregate.Neutral)
        && Time.(t Aggregate.Neutral <= t Aggregate.Exact))

let prop_neutral_sound =
  (* The value must not change before the neutral expiration time. *)
  Generators.qtest "neutral texp never passes the first change" ~count:400
    partition_gen (fun fp ->
      match live_partitions fp with
      | None -> true
      | Some (f, p) ->
        let t_n = Aggregate.result_texp Aggregate.Neutral ~tau:Time.zero f p in
        let change = Aggregate.nu ~tau:Time.zero f p in
        Time.(t_n <= change) || Time.equal t_n (Aggregate.empties_at p))

let prop_chi_detects_changes =
  Generators.qtest "chi true iff adjacent values differ" ~count:300
    (QCheck2.Gen.triple (Generators.agg_func ~arity:2)
       (Generators.partition ~arity:2) Generators.time_finite)
    (fun (f, p, tau) ->
      Aggregate.chi tau f p
      = not (value_opt_equal (value_at f p tau) (value_at f p (Time.succ tau))))

let prop_validity_windows_sound =
  Generators.qtest "windows contain exactly the matching-value times"
    ~count:300 partition_gen (fun fp ->
      match live_partitions fp with
      | None -> true
      | Some (f, p) ->
        let windows = Validity.aggregate_windows ~tau:Time.zero f p in
        let v0 = value_at f p Time.zero in
        List.for_all
          (fun t ->
            let expected =
              match value_at f p t with
              | None -> true (* partition expired: absent, not wrong *)
              | Some v -> value_opt_equal (Some v) v0
            in
            Interval_set.mem t windows = expected)
          (List.filter Time.is_finite Generators.sample_times))

(* --- Approximate change points (the future-work extension) --- *)

let test_nu_within_example () =
  (* sum drifts 10 -> 7 (at 5) -> 4 (at 8) -> empty (at 9). *)
  let p = [ member [ 1; 3 ] 5; member [ 2; 3 ] 8; member [ 3; 4 ] 9 ] in
  let nu_eps eps = Aggregate.nu_within ~tolerance:eps ~tau:Time.zero (Aggregate.Sum 2) p in
  Alcotest.(check string) "eps 0 = exact" "5" (Time.to_string (nu_eps 0.));
  Alcotest.(check string) "eps 3 tolerates the first drop" "8"
    (Time.to_string (nu_eps 3.));
  Alcotest.(check string) "eps 6 tolerates both" "9" (Time.to_string (nu_eps 6.));
  Alcotest.(check string) "eps 100 still dies with the partition" "9"
    (Time.to_string (nu_eps 100.));
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Aggregate.nu_within: negative tolerance") (fun () ->
      ignore (nu_eps (-1.)))

let tolerance_gen =
  QCheck2.Gen.map (fun n -> float_of_int n /. 2.) (QCheck2.Gen.int_range 0 10)

let prop_nu_within_zero_is_nu =
  Generators.qtest "nu_within 0 = nu on numeric values" ~count:300 partition_gen
    (fun (f, p) ->
      Time.equal
        (Aggregate.nu_within ~tolerance:0. ~tau:Time.zero f p)
        (Aggregate.nu ~tau:Time.zero f p))

let prop_nu_within_monotone =
  Generators.qtest "nu_within grows with the tolerance" ~count:300
    (QCheck2.Gen.triple Generators.(agg_func ~arity:2) (Generators.partition ~arity:2)
       (QCheck2.Gen.pair tolerance_gen tolerance_gen))
    (fun (f, p, (t1, t2)) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      Time.(
        Aggregate.nu_within ~tolerance:lo ~tau:Time.zero f p
        <= Aggregate.nu_within ~tolerance:hi ~tau:Time.zero f p))

let prop_nu_within_error_bounded =
  Generators.qtest "value drift stays within tolerance until nu_within"
    ~count:300
    (QCheck2.Gen.triple Generators.(agg_func ~arity:2) (Generators.partition ~arity:2)
       tolerance_gen)
    (fun (f, p, tolerance) ->
      match live_partitions (f, p) with
      | None -> true
      | Some (f, live) ->
        let v0 = Aggregate.apply f live in
        let bound = Aggregate.nu_within ~tolerance ~tau:Time.zero f live in
        List.for_all
          (fun tau ->
            if Time.(tau >= bound) then true
            else
              match value_at f live tau with
              | None -> false (* would be a change point before [bound] *)
              | Some v ->
                (match Value.to_float v0, Value.to_float v with
                 | Some x, Some y -> Float.abs (y -. x) <= tolerance
                 | _ -> Value.equal v0 v))
          (List.filter Time.is_finite Generators.sample_times))

let suite =
  [ Alcotest.test_case "aggregate functions" `Quick test_apply;
    Alcotest.test_case "approximate change points (nu_within)" `Quick
      test_nu_within_example;
    prop_nu_within_zero_is_nu;
    prop_nu_within_monotone;
    prop_nu_within_error_bounded;
    Alcotest.test_case "null handling" `Quick test_apply_nulls;
    Alcotest.test_case "phi^exp partitioning (Eq 7)" `Quick test_partitions;
    Alcotest.test_case "Figure 3(a) partition change point" `Quick
      test_figure3a_histogram_partition;
    Alcotest.test_case "Table 1: min neutrality" `Quick test_neutral_min;
    Alcotest.test_case "Table 1: max neutrality" `Quick test_neutral_max;
    Alcotest.test_case "Table 1: sum zero slices" `Quick test_neutral_sum_zero_slice;
    Alcotest.test_case "empty contributing set (C = {})" `Quick
      test_neutral_sum_all_zero;
    Alcotest.test_case "Table 1: avg neutrality" `Quick test_neutral_avg;
    Alcotest.test_case "count never improves" `Quick test_count_strictly_conservative;
    Alcotest.test_case "timeline and I_R(t) windows" `Quick test_timeline_and_windows;
    prop_nu_matches_brute_force;
    prop_strategy_ordering;
    prop_neutral_sound;
    prop_chi_detects_changes;
    prop_validity_windows_sound ]
