open Expirel_core
open Expirel_sqlx

let catalog = function
  | "pol" -> Some [ "uid"; "deg" ]
  | "el" -> Some [ "uid"; "deg" ]
  | "s" -> Some [ "sid"; "uid" ]
  | _ -> None

let lower text = Lower.lower_query ~catalog (Parser.parse_query text)

let check_expr name expected text =
  Alcotest.(check string) name expected (Algebra.to_string (lower text).Lower.expr)

let test_plain_select () =
  check_expr "projection" "pi_(2,1)(pol)" "SELECT deg, uid FROM pol";
  check_expr "star is identity" "pol" "SELECT * FROM pol";
  check_expr "where becomes sigma" "pi_(1)(sigma_(#2 > 30)(pol))"
    "SELECT uid FROM pol WHERE deg > 30"

let test_join () =
  let { Lower.expr; columns; _ } =
    lower "SELECT pol.uid, s.sid FROM pol JOIN s ON pol.uid = s.uid"
  in
  Alcotest.(check string) "join lowering"
    "pi_(1,3)((pol joinexp_(#1 = #4) s))" (Algebra.to_string expr);
  Alcotest.(check (list string)) "qualified output labels"
    [ "pol.uid"; "sid" ] columns

let test_join_star_labels () =
  let { Lower.columns; _ } = lower "SELECT * FROM pol JOIN el ON pol.uid = el.uid" in
  (* Every shared column name is qualified. *)
  Alcotest.(check (list string)) "labels"
    [ "pol.uid"; "pol.deg"; "el.uid"; "el.deg" ] columns

let test_aggregate () =
  let { Lower.expr; columns; _ } =
    lower "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
  in
  (* The Figure 3(a) shape: project over agg^exp. *)
  Alcotest.(check string) "histogram"
    "pi_(2,3)(agg_({2},count)(pol))" (Algebra.to_string expr);
  Alcotest.(check (list string)) "labels" [ "deg"; "count" ] columns;
  check_expr "sum with where"
    "pi_(1,3)(agg_({1},sum_2)(sigma_(#2 > 0)(pol)))"
    "SELECT uid, SUM(deg) FROM pol WHERE deg > 0 GROUP BY uid"

let test_set_ops () =
  check_expr "except" "(pi_(1)(pol) -exp pi_(1)(el))"
    "SELECT uid FROM pol EXCEPT SELECT uid FROM el";
  check_expr "union" "(pi_(1)(pol) uexp pi_(1)(el))"
    "SELECT uid FROM pol UNION SELECT uid FROM el";
  check_expr "intersect" "(pi_(1)(pol) nexp pi_(1)(el))"
    "SELECT uid FROM pol INTERSECT SELECT uid FROM el"

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_error text fragment =
  match lower text with
  | exception Lower.Error msg ->
    if not (string_contains msg fragment) then
      Alcotest.failf "error %S lacks %S" msg fragment
  | _ -> Alcotest.failf "expected lowering error for %S" text

let test_errors () =
  expect_error "SELECT x FROM pol" "unknown column x";
  expect_error "SELECT uid FROM missing" "unknown table missing";
  expect_error "SELECT uid FROM pol JOIN el ON uid = deg" "ambiguous column uid";
  expect_error "SELECT deg FROM pol GROUP BY deg" "GROUP BY without an aggregate";
  expect_error "SELECT uid, COUNT(*) FROM pol GROUP BY deg" "not in GROUP BY";
  expect_error "SELECT COUNT(*), SUM(deg) FROM pol GROUP BY deg"
    "at most one aggregate";
  expect_error "SELECT uid FROM pol UNION SELECT uid, deg FROM el"
    "different widths";
  expect_error "SELECT pol.uid FROM el" "unknown column pol.uid";
  expect_error "SELECT APPROX_COUNT(0.1), uid FROM pol" "cannot be mixed";
  expect_error "SELECT APPROX_COUNT(0.1) FROM pol GROUP BY deg" "GROUP BY"

(* A global aggregate lowers to agg^exp over the single empty-key
   partition — no GROUP BY needed (this unlocks the coordinator's
   per-shard combine). *)
let test_global_aggregate () =
  let { Lower.expr; columns; _ } = lower "SELECT COUNT(*) FROM pol" in
  Alcotest.(check string) "global count"
    "pi_(3)(agg_({},count)(pol))" (Algebra.to_string expr);
  Alcotest.(check (list string)) "labels" [ "count" ] columns;
  check_expr "global sum with where" "pi_(3)(agg_({},sum_2)(sigma_(#2 > 0)(pol)))"
    "SELECT SUM(deg) FROM pol WHERE deg > 0"

let test_approx () =
  let { Lower.expr; columns; approx } = lower "SELECT APPROX_COUNT(0.05) FROM pol" in
  Alcotest.(check string) "child is the filtered source" "pol"
    (Algebra.to_string expr);
  Alcotest.(check (list string)) "labels" [ "approx_count"; "within" ] columns;
  (match approx with
   | Some (Expirel_exec.Approx.Count { epsilon }) ->
     Alcotest.(check (float 0.)) "epsilon" 0.05 epsilon
   | _ -> Alcotest.fail "expected a Count spec");
  let { Lower.columns; approx; _ } = lower "SELECT SAMPLE(3) FROM pol WHERE deg > 0" in
  Alcotest.(check (list string)) "sample keeps child labels"
    [ "uid"; "deg" ] columns;
  (match approx with
   | Some (Expirel_exec.Approx.Sample { k }) -> Alcotest.(check int) "k" 3 k
   | _ -> Alcotest.fail "expected a Sample spec")

let test_delete_cond () =
  let p =
    Lower.lower_cond_for_table ~columns:[ "a"; "b" ] ~table:"t"
      (match Parser.parse_statement "DELETE FROM t WHERE b = 2" with
       | Ast.Delete (_, Some c) -> c
       | _ -> Alcotest.fail "parse")
  in
  Alcotest.(check string) "resolved against table" "#2 = 2" (Predicate.to_string p)

(* The cluster read route, read off the shape of the coordinator's plan
   for the lowered algebra: pol and el hash on uid, s on sid.  A root
   exchange scatters, an aggregate over an exchange merges partials, a
   sketch over an exchange merges sketches, and exchanges at the scans
   gather. *)
let test_route () =
  let open Expirel_exec in
  let name { Lower.expr; approx; _ } =
    let env table = Option.map List.length (catalog table) in
    match (Planner.distribute ~env ?approx expr).Plan.physical with
    | Plan.Exchange { ship = Plan.Statement; want = Plan.Rows; _ } -> "scatter"
    | Plan.Grouped_aggregate { child = Plan.Exchange { want = Plan.Partials; _ }; _ } ->
      "partial"
    | Plan.Sketch_count { child = Plan.Exchange { want = Plan.Sketch; _ }; _ }
    | Plan.Sketch_sample { child = Plan.Exchange { want = Plan.Sketch; _ }; _ } ->
      "sketch"
    | physical ->
      let rec gathered = function
        | Plan.Exchange { ship = Plan.Table _; want = Plan.Rows; keys = None; _ } -> true
        | Plan.Exchange _ | Plan.Scan _ -> false
        | p -> List.for_all gathered (Plan.children p)
      in
      if gathered physical then "gather" else Plan.to_string physical
  in
  List.iter
    (fun (expected, text) ->
      Alcotest.(check string) text expected (name (lower text)))
    [ ("scatter", "SELECT * FROM pol WHERE uid = 1");
      ("scatter", "SELECT uid, deg FROM pol WHERE deg = 25");
      ("scatter", "SELECT uid FROM pol UNION SELECT deg FROM el");
      ("scatter", "SELECT * FROM pol EXCEPT SELECT * FROM el WHERE deg > 1");
      ("scatter", "SELECT uid, deg FROM pol EXCEPT SELECT uid, deg FROM el");
      ("scatter", "SELECT deg, uid FROM pol INTERSECT SELECT deg, uid FROM el");
      ("gather", "SELECT deg FROM pol EXCEPT SELECT deg FROM el");
      ("gather", "SELECT uid, deg FROM pol EXCEPT SELECT deg, uid FROM el");
      ("scatter",
       "SELECT * FROM pol JOIN el ON pol.uid = el.uid WHERE pol.deg > 1");
      ("gather", "SELECT * FROM pol JOIN s ON pol.uid = s.uid");
      ("partial", "SELECT deg, COUNT(*) FROM pol GROUP BY deg");
      ("partial",
       "SELECT deg, COUNT(*) FROM pol GROUP BY deg HAVING COUNT(*) > 1");
      ("partial", "SELECT AVG(deg) FROM pol WHERE uid = 1");
      ("gather",
       "SELECT pol.deg, COUNT(*) FROM pol JOIN el ON pol.uid = el.uid \
        GROUP BY pol.deg");
      ("sketch", "SELECT APPROX_COUNT(0.1) FROM pol WHERE uid = 1");
      ("sketch", "SELECT SAMPLE(2) FROM pol") ]

let suite =
  [ Alcotest.test_case "plain selects" `Quick test_plain_select;
    Alcotest.test_case "joins and qualification" `Quick test_join;
    Alcotest.test_case "star labels over joins" `Quick test_join_star_labels;
    Alcotest.test_case "aggregates lower to agg^exp + projection" `Quick
      test_aggregate;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "resolution errors" `Quick test_errors;
    Alcotest.test_case "global aggregates" `Quick test_global_aggregate;
    Alcotest.test_case "approximate aggregates" `Quick test_approx;
    Alcotest.test_case "delete conditions" `Quick test_delete_cond;
    Alcotest.test_case "cluster read routes" `Quick test_route ]
