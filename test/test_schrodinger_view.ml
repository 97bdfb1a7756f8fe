open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int
let env = News.figure1_env

let pol1 = Algebra.(project [ 1 ] (base "Pol"))
let el1 = Algebra.(project [ 1 ] (base "El"))
let difference = Algebra.(diff pol1 el1)
let histogram = Algebra.(aggregate [ 2 ] Aggregate.Count (base "Pol"))

let test_difference_reappearance () =
  let v = Schrodinger_view.materialise ~env ~tau:Time.zero difference in
  (* <1> appears during [5,10[, <2> during [3,15[, <3> during [0,10[. *)
  let check tau expected =
    let r = Schrodinger_view.read v ~tau:(fin tau) in
    Alcotest.(check (list string)) (Printf.sprintf "at %d" tau) expected
      (List.map (fun (t, _) -> Tuple.to_string t) (Relation.to_list r))
  in
  check 0 [ "<3>" ];
  check 3 [ "<2>"; "<3>" ];
  check 5 [ "<1>"; "<2>"; "<3>" ];
  check 10 [ "<2>" ];
  check 15 [];
  Alcotest.(check int) "three interval entries" 3 (Schrodinger_view.entries v)

let test_aggregation_value_windows () =
  let v = Schrodinger_view.materialise ~env ~tau:Time.zero histogram in
  let at tau = Schrodinger_view.read v ~tau:(fin tau) in
  Alcotest.(check bool) "count 2 at 0" true
    (Relation.mem (Tuple.ints [ 1; 25; 2 ]) (at 0));
  (* After time 10 the count for degree 25 is 1 — the window the paper's
     single expiration time cannot serve. *)
  Alcotest.(check bool) "count 1 at 12" true
    (Relation.mem (Tuple.ints [ 2; 25; 1 ]) (at 12));
  Alcotest.(check int) "only one row at 12" 1 (Relation.cardinal (at 12));
  Alcotest.(check int) "empty at 15" 0 (Relation.cardinal (at 15))

let test_read_guard () =
  let v = Schrodinger_view.materialise ~env ~tau:(fin 5) pol1 in
  Alcotest.check_raises "no reads before materialisation"
    (Invalid_argument "Schrodinger_view.read: before materialisation time")
    (fun () -> ignore (Schrodinger_view.read v ~tau:(fin 2)))

let future_times = List.filter Time.is_finite Generators.sample_times

(* The central claim: a Schrödinger view answers every future query
   exactly, with zero recomputation, for difference and aggregation
   roots over monotonic children. *)
let prop_difference_maintenance_free =
  Generators.qtest "difference roots: read = fresh evaluation forever" ~count:200
    (QCheck2.Gen.pair
       (QCheck2.Gen.pair
          (Generators.expr ~allow_non_monotonic:false ~arity:2 ())
          (Generators.expr ~allow_non_monotonic:false ~arity:2 ()))
       Generators.env_bindings)
    (fun ((l, r), bindings) ->
      let env = Eval.env_of_list bindings in
      let expr = Algebra.diff l r in
      let v = Schrodinger_view.materialise ~env ~tau:Time.zero expr in
      List.for_all
        (fun tau ->
          Relation.equal
            (Schrodinger_view.read v ~tau)
            (Eval.relation_at ~env ~tau expr))
        future_times)

let agg_root_gen =
  let open QCheck2.Gen in
  let* child = Generators.expr ~allow_non_monotonic:false ~arity:2 () in
  let* f = Generators.agg_func ~arity:2 in
  let* group = oneofl [ [ 1 ]; [ 2 ]; [ 1; 2 ] ] in
  let* bindings = Generators.env_bindings in
  return (Algebra.aggregate group f child, bindings)

let prop_aggregation_maintenance_free =
  Generators.qtest "aggregation roots: read = fresh evaluation forever"
    ~count:200 agg_root_gen
    (fun (expr, bindings) ->
      let env = Eval.env_of_list bindings in
      let v = Schrodinger_view.materialise ~env ~tau:Time.zero expr in
      List.for_all
        (fun tau ->
          Relation.equal
            (Schrodinger_view.read v ~tau)
            (Eval.relation_at ~strategy:Aggregate.Exact ~env ~tau expr))
        future_times)

(* Section 3.4.1's storage bound: the number of aggregate-value changes
   is at most |R|, so entries <= 2 |R| (each member appears in at most
   one entry per value segment of its partition; segments per partition
   <= partition size + 1... the practically useful bound we check is the
   paper's: per-partition changes <= partition size). *)
let prop_aggregation_storage_bound =
  Generators.qtest "per-partition value changes are bounded by |P|" ~count:200
    (QCheck2.Gen.pair (Generators.agg_func ~arity:2) (Generators.partition ~arity:2))
    (fun (f, p) ->
      let live = List.filter (fun (_, e) -> Time.(e > Time.zero)) p in
      if live = [] then true
      else
        let segments = Aggregate.timeline ~tau:Time.zero f live in
        (* timeline returns the initial segment plus one per change. *)
        List.length segments - 1 <= List.length live)

let prop_monotonic_matches_plain_view =
  Generators.qtest "monotonic roots behave like ordinary materialisations"
    ~count:100
    (Generators.expr_and_env ~allow_non_monotonic:false ())
    (fun (expr, bindings) ->
      let env = Eval.env_of_list bindings in
      let v = Schrodinger_view.materialise ~env ~tau:Time.zero expr in
      let materialised = Eval.relation_at ~env ~tau:Time.zero expr in
      List.for_all
        (fun tau ->
          Relation.equal_tuples
            (Schrodinger_view.read v ~tau)
            (Relation.exp tau materialised))
        future_times)

let suite =
  [ Alcotest.test_case "difference tuples reappear (Section 3.4.2)" `Quick
      test_difference_reappearance;
    Alcotest.test_case "aggregate value windows (Section 3.4.1)" `Quick
      test_aggregation_value_windows;
    Alcotest.test_case "read guard" `Quick test_read_guard;
    prop_difference_maintenance_free;
    prop_aggregation_maintenance_free;
    prop_aggregation_storage_bound;
    prop_monotonic_matches_plain_view ]
