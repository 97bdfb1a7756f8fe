open Expirel_core
open Expirel_storage
open Expirel_exec

let fin = Time.of_int

(* --- Ordered_index unit tests --- *)

let test_index_basics () =
  let idx = Ordered_index.create ~column:2 in
  Alcotest.(check int) "empty" 0 (Ordered_index.entries idx);
  List.iter (fun vs -> Ordered_index.insert idx (Tuple.ints vs))
    [ [ 1; 25 ]; [ 2; 25 ]; [ 3; 35 ]; [ 4; 10 ] ];
  Ordered_index.insert idx (Tuple.ints [ 1; 25 ]);
  Alcotest.(check int) "idempotent insert" 4 (Ordered_index.entries idx);
  Alcotest.(check (list string)) "lookup bucket" [ "<1, 25>"; "<2, 25>" ]
    (List.map Tuple.to_string (Ordered_index.lookup idx (Value.int 25)));
  Alcotest.(check (list string)) "range [20, 30]"
    [ "<1, 25>"; "<2, 25>" ]
    (List.map Tuple.to_string
       (Ordered_index.range idx ~lo:(Ordered_index.Inclusive (Value.int 20))
          ~hi:(Ordered_index.Inclusive (Value.int 30))));
  Alcotest.(check (list string)) "exclusive bounds"
    [ "<1, 25>"; "<2, 25>" ]
    (List.map Tuple.to_string
       (Ordered_index.range idx ~lo:(Ordered_index.Exclusive (Value.int 10))
          ~hi:(Ordered_index.Exclusive (Value.int 35))));
  (match Ordered_index.extrema idx with
   | Some (lo, hi) ->
     Alcotest.(check string) "extrema" "10..35"
       (Value.to_string lo ^ ".." ^ Value.to_string hi)
   | None -> Alcotest.fail "non-empty");
  Ordered_index.remove idx (Tuple.ints [ 4; 10 ]);
  Ordered_index.remove idx (Tuple.ints [ 4; 10 ]);
  Alcotest.(check int) "remove idempotent" 3 (Ordered_index.entries idx)

(* Reference semantics: range = filter over all entries. *)
let prop_range_matches_filter =
  Generators.qtest "index range = filter" ~count:200
    (QCheck2.Gen.pair
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
          (Generators.tuple_no_null ~arity:2))
       (QCheck2.Gen.pair (QCheck2.Gen.int_range (-4) 5) (QCheck2.Gen.int_range (-4) 5)))
    (fun (tuples, (a, b)) ->
      let lo_v = Value.int (min a b) and hi_v = Value.int (max a b) in
      let idx = Ordered_index.create ~column:1 in
      List.iter (Ordered_index.insert idx) tuples;
      let got =
        Ordered_index.range idx ~lo:(Ordered_index.Inclusive lo_v)
          ~hi:(Ordered_index.Exclusive hi_v)
      in
      let expected =
        List.sort_uniq Tuple.compare
          (List.filter
             (fun t ->
               Value.compare (Tuple.attr t 1) lo_v >= 0
               && Value.compare (Tuple.attr t 1) hi_v < 0)
             tuples)
      in
      List.sort Tuple.compare got = expected)

(* --- Access-path planning and execution --- *)

let make_db rows =
  let db = Database.create () in
  let tbl = Database.create_table db ~name:"t" ~columns:[ "a"; "b" ] in
  List.iter (fun (vs, e) -> Table.insert tbl (Tuple.ints vs) ~texp:(fin e)) rows;
  Table.create_index tbl ~column:2;
  db

let sample =
  [ [ 1; 25 ], 10; [ 2; 25 ], 15; [ 3; 35 ], 10; [ 4; 50 ], 20; [ 5; 50 ], 3 ]

let make_table rows = Database.table_exn (make_db rows) "t"

let plan_name tbl p = Format.asprintf "%a" Access.pp_plan (Access.plan tbl p)

(* A selection over the stored table through the executor's scan leaf,
   which runs the access path {!Access.plan} picks. *)
let select db ~tau p =
  (Executor.run ~tau ~db (Planner.plan ~db Algebra.(select p (base "t"))))
    .Eval.relation

let test_plans () =
  let tbl = make_table sample in
  Alcotest.(check string) "equality probe" "index-eq(#2 = 25)"
    (plan_name tbl (Predicate.eq_const 2 (Value.int 25)));
  Alcotest.(check string) "range" "index-range(#2: [30].._)"
    (plan_name tbl
       (Predicate.Cmp (Predicate.Ge, Predicate.Col 2, Predicate.Const (Value.int 30))));
  Alcotest.(check string) "flipped constant side" "index-range(#2: _..(40))"
    (plan_name tbl
       (Predicate.Cmp (Predicate.Gt, Predicate.Const (Value.int 40), Predicate.Col 2)));
  Alcotest.(check string) "unindexed column scans" "full-scan"
    (plan_name tbl (Predicate.eq_const 1 (Value.int 1)));
  Alcotest.(check string) "null comparison short-circuits" "never-matches"
    (plan_name tbl (Predicate.eq_const 2 Value.Null));
  Alcotest.(check string) "equality preferred over range" "index-eq(#2 = 25)"
    (plan_name tbl
       (Predicate.And
          (Predicate.Cmp (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int 60)),
           Predicate.eq_const 2 (Value.int 25))));
  Alcotest.(check string) "range conjuncts merge into one interval"
    "index-range(#2: [20]..(40))"
    (plan_name tbl
       (Predicate.And
          (Predicate.Cmp (Predicate.Ge, Predicate.Col 2, Predicate.Const (Value.int 20)),
           Predicate.Cmp (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int 40)))));
  (* A string constant against an int-keyed index is heterogeneous. *)
  Alcotest.(check string) "heterogeneous falls back" "full-scan"
    (plan_name tbl (Predicate.eq_const 2 (Value.str "x")))

let test_select_via_index () =
  let db = make_db sample in
  let p =
    Predicate.And
      (Predicate.eq_const 2 (Value.int 50),
       Predicate.Cmp (Predicate.Lt, Predicate.Col 1, Predicate.Const (Value.int 5)))
  in
  let r = select db ~tau:(fin 4) p in
  (* <5,50> expired at 3, <4,50> passes both conjuncts. *)
  Alcotest.(check int) "one row" 1 (Relation.cardinal r);
  Alcotest.(check bool) "the right one" true (Relation.mem (Tuple.ints [ 4; 50 ]) r)

let test_index_maintenance () =
  let db = make_db sample in
  let tbl = Database.table_exn db "t" in
  ignore (Table.delete tbl (Tuple.ints [ 1; 25 ]));
  ignore (Table.expire_upto tbl (fin 3));
  Table.insert tbl (Tuple.ints [ 9; 25 ]) ~texp:(fin 50);
  let r = select db ~tau:(fin 4) (Predicate.eq_const 2 (Value.int 25)) in
  Alcotest.(check (list string)) "index reflects delete/expire/insert"
    [ "<2, 25>"; "<9, 25>" ]
    (List.map (fun (t, _) -> Tuple.to_string t) (Relation.to_list r));
  Alcotest.(check (list int)) "indexed columns" [ 2 ] (Table.indexed_columns tbl);
  Table.drop_index tbl ~column:2;
  Alcotest.(check string) "dropped index scans" "full-scan"
    (plan_name tbl (Predicate.eq_const 2 (Value.int 25)))

(* The load-bearing property: access paths never change results, even on
   type-mixed columns (where the planner must fall back). *)
let prop_access_equals_reference =
  Generators.qtest "indexed select = reference select" ~count:300
    (QCheck2.Gen.tup3
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25)
          (QCheck2.Gen.pair (Generators.tuple ~arity:2)
             (QCheck2.Gen.int_range 1 20)))
       (Generators.predicate ~arity:2)
       Generators.time_finite)
    (fun (rows, p, tau) ->
      let db = Database.create () in
      let tbl = Database.create_table db ~name:"t" ~columns:[ "a"; "b" ] in
      List.iter (fun (t, e) -> Table.insert tbl t ~texp:(fin e)) rows;
      Table.create_index tbl ~column:1;
      Table.create_index tbl ~column:2;
      let reference = Ops.select p (Table.snapshot tbl ~tau) in
      Relation.equal (select db ~tau p) reference)

let suite =
  [ Alcotest.test_case "ordered index basics" `Quick test_index_basics;
    Alcotest.test_case "plan selection" `Quick test_plans;
    Alcotest.test_case "select through an index" `Quick test_select_via_index;
    Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
    prop_range_matches_filter;
    prop_access_equals_reference ]
