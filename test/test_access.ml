open Expirel_core
open Expirel_storage
open Expirel_exec

let fin = Time.of_int

(* --- The index: the table's rows in a Texp_run keyed on a column --- *)

(* The index rows a scan returns at [tau], in its order. *)
let index_rows tbl ~column ~tau ~lo ~hi =
  let rows = ref [] in
  Texp_run.scan_range (Table.index tbl ~column) ~tau ~lo ~hi ~visited:(ref 0)
    ~dropped:(ref 0)
    (fun c sel ->
      let pick r =
        rows :=
          Tuple.init ~arity:(Table.arity tbl) (fun j -> (Texp_run.chunk_col c j).(r))
          :: !rows
      in
      match sel with
      | Some s -> Array.iter pick s
      | None -> for r = 0 to Texp_run.chunk_len c - 1 do pick r done);
  List.rev !rows

let test_index_basics () =
  let tbl = Table.create ~name:"t" ~columns:[ "a"; "b" ] () in
  Table.create_index tbl ~column:2;
  let entries () =
    Texp_run.count_range (Table.index tbl ~column:2) ~lo:Texp_run.Unbounded
      ~hi:Texp_run.Unbounded
  in
  let range lo hi =
    List.map Tuple.to_string (index_rows tbl ~column:2 ~tau:(fin 0) ~lo ~hi)
  in
  Alcotest.(check int) "empty" 0 (entries ());
  List.iter (fun vs -> Table.insert tbl (Tuple.ints vs) ~texp:Time.Inf)
    [ [ 1; 25 ]; [ 2; 25 ]; [ 3; 35 ]; [ 4; 10 ] ];
  Table.insert tbl (Tuple.ints [ 1; 25 ]) ~texp:Time.Inf;
  Alcotest.(check int) "idempotent insert" 4 (entries ());
  Alcotest.(check (list string)) "lookup bucket" [ "<1, 25>"; "<2, 25>" ]
    (range (Texp_run.Inclusive (Value.int 25)) (Texp_run.Inclusive (Value.int 25)));
  Alcotest.(check (list string)) "range [20, 30]"
    [ "<1, 25>"; "<2, 25>" ]
    (range (Texp_run.Inclusive (Value.int 20)) (Texp_run.Inclusive (Value.int 30)));
  Alcotest.(check (list string)) "exclusive bounds"
    [ "<1, 25>"; "<2, 25>" ]
    (range (Texp_run.Exclusive (Value.int 10)) (Texp_run.Exclusive (Value.int 35)));
  (match Texp_run.key_extrema (Table.index tbl ~column:2) with
   | Some (lo, hi) ->
     Alcotest.(check string) "extrema" "10..35"
       (Value.to_string lo ^ ".." ^ Value.to_string hi)
   | None -> Alcotest.fail "non-empty");
  ignore (Table.delete tbl (Tuple.ints [ 4; 10 ]));
  ignore (Table.delete tbl (Tuple.ints [ 4; 10 ]));
  Alcotest.(check int) "remove idempotent" 3 (entries ())

(* Reference semantics: range = filter over all entries. *)
let prop_range_matches_filter =
  Generators.qtest "index range = filter" ~count:200
    (QCheck2.Gen.pair
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 30)
          (Generators.tuple_no_null ~arity:2))
       (QCheck2.Gen.pair (QCheck2.Gen.int_range (-4) 5) (QCheck2.Gen.int_range (-4) 5)))
    (fun (tuples, (a, b)) ->
      let lo_v = Value.int (min a b) and hi_v = Value.int (max a b) in
      let tbl = Table.create ~name:"t" ~columns:[ "a"; "b" ] () in
      Table.create_index tbl ~column:1;
      List.iter (fun t -> Table.insert tbl t ~texp:Time.Inf) tuples;
      let got =
        index_rows tbl ~column:1 ~tau:(fin 0) ~lo:(Texp_run.Inclusive lo_v)
          ~hi:(Texp_run.Exclusive hi_v)
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

let plan_name tbl p =
  Format.asprintf "%a" Access.pp_plan (Access.plan tbl ~tau:(fin 0) p)

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

(* A tick leaves an index's expired rows in place, to be skipped by
   texp, except for chunks that have wholly expired: those go at once. *)
let test_index_drops_expired_chunks () =
  let db = Database.create () in
  let tbl = Database.create_table db ~name:"t" ~columns:[ "a" ] in
  for a = 0 to 599 do
    Database.insert db "t" (Tuple.ints [ a ]) ~texp:(fin (if a < 300 then 5 else 6))
  done;
  Table.create_index tbl ~column:1;
  let all = Texp_run.Unbounded in
  Alcotest.(check int) "every row indexed" 600
    (Texp_run.count_range (Table.index tbl ~column:1) ~lo:all ~hi:all);
  Database.advance_to db (fin 5);
  (* Built as three chunks of 200 keys: the first wholly expired at 5. *)
  Alcotest.(check int) "the expired chunk is reclaimed, the straddler kept" 400
    (Texp_run.count_range (Table.index tbl ~column:1) ~lo:all ~hi:all);
  Alcotest.(check int) "the live rows" 300
    (List.length (index_rows tbl ~column:1 ~tau:(fin 5) ~lo:all ~hi:all))

(* Index maintenance between the reads: writes through the Database (so
   the clock contract index reads rely on holds), with bursts past
   [Texp_run.chunk_rows] on a six-value key so folds and splits run,
   texp-changing overwrites, and deletes of whole spans so shrunk
   chunks merge. *)
type index_op =
  | Put of int * int * int  (* a, b, ttl (0 = never expires) *)
  | Burst of int * int  (* seed, rows *)
  | Redate of int * int  (* the i-th live row, new ttl *)
  | Drop of int * int  (* live rows [i, i + n) *)
  | Move of int  (* the clock moves: eager expires, lazy keeps *)
  | Vacuum

let index_op_gen =
  let open QCheck2.Gen in
  frequency
    [ 3, map3 (fun a b ttl -> Put (a, b, ttl)) (int_range 0 30) (int_range 0 5)
           (int_range 0 40);
      2, map2 (fun seed n -> Burst (seed, n)) (int_range 0 1_000) (int_range 100 400);
      3, map2 (fun i ttl -> Redate (i, ttl)) (int_range 0 10_000) (int_range 1 60);
      2, map2 (fun i n -> Drop (i, n)) (int_range 0 10_000) (int_range 1 300);
      2, map (fun dt -> Move dt) (int_range 0 15);
      1, return Vacuum ]

let apply_index_op db op =
  let now = Database.now db in
  let texp ttl = if ttl = 0 then Time.Inf else Time.add now (fin ttl) in
  let live () =
    List.map fst (Relation.to_list (Table.snapshot (Database.table_exn db "t") ~tau:now))
  in
  match op with
  | Put (a, b, ttl) -> Database.insert db "t" (Tuple.ints [ a; b ]) ~texp:(texp ttl)
  | Burst (seed, n) ->
    let st = Random.State.make [| seed |] in
    for _ = 1 to n do
      Database.insert db "t"
        (Tuple.ints [ Random.State.int st 100_000; Random.State.int st 6 ])
        ~texp:(texp (Random.State.int st 40))
    done
  | Redate (i, ttl) ->
    (match live () with
     | [] -> ()
     | rows -> Database.insert db "t" (List.nth rows (i mod List.length rows)) ~texp:(texp ttl))
  | Drop (i, n) ->
    let rows = live () in
    let first = i mod max 1 (List.length rows) in
    List.iteri
      (fun j t -> if j >= first && j < first + n then ignore (Database.delete db "t" t))
      rows
  | Move dt -> Database.advance_to db (Time.add now (fin dt))
  | Vacuum -> ignore (Database.vacuum db)

(* At [tau]: the selection through the planned access path, and the
   index's own key ranges, against the live snapshot. *)
let index_agrees db p ~tau =
  let tbl = Database.table_exn db "t" in
  let snap = Table.snapshot tbl ~tau in
  let agrees p = Relation.equal (select db ~tau p) (Ops.select p snap) in
  let cmp op j v = Predicate.Cmp (op, Predicate.Col j, Predicate.Const (Value.int v)) in
  let key_range column lo hi =
    let inside t =
      let k = Tuple.attr t column in
      (match lo with
       | Texp_run.Unbounded -> true
       | Texp_run.Inclusive v -> Value.compare k v >= 0
       | Texp_run.Exclusive v -> Value.compare k v > 0)
      && (match hi with
          | Texp_run.Unbounded -> true
          | Texp_run.Inclusive v -> Value.compare k v <= 0
          | Texp_run.Exclusive v -> Value.compare k v < 0)
    in
    List.sort Tuple.compare (index_rows tbl ~column ~tau ~lo ~hi)
    = List.sort Tuple.compare (List.filter inside (List.map fst (Relation.to_list snap)))
  in
  agrees p
  && agrees (Predicate.eq_const 2 (Value.int 3))
  && agrees (Predicate.And (cmp Predicate.Ge 1 10, cmp Predicate.Lt 1 20_000))
  && key_range 2 (Texp_run.Inclusive (Value.int 3)) (Texp_run.Inclusive (Value.int 3))
  && key_range 1 (Texp_run.Exclusive (Value.int 5)) (Texp_run.Inclusive (Value.int 50_000))
  && key_range 2 Texp_run.Unbounded (Texp_run.Exclusive (Value.int 2))

(* The load-bearing property: access paths never change results, even on
   type-mixed columns (where the planner must fall back), and while the
   indexes are maintained under both removal policies. *)
let prop_access_equals_reference =
  Generators.qtest "indexed select = reference select" ~count:300
    (QCheck2.Gen.tup4
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25)
          (QCheck2.Gen.pair (Generators.tuple ~arity:2)
             (QCheck2.Gen.int_range 1 20)))
       (Generators.predicate ~arity:2)
       Generators.time_finite
       (QCheck2.Gen.pair
          (QCheck2.Gen.oneofl [ Database.Eager; Database.Lazy ])
          (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 12) index_op_gen)))
    (fun (rows, p, tau, (policy, ops)) ->
      let db = Database.create ~policy () in
      let tbl = Database.create_table db ~name:"t" ~columns:[ "a"; "b" ] in
      List.iter (fun (t, e) -> Table.insert tbl t ~texp:(fin e)) rows;
      Table.create_index tbl ~column:1;
      Table.create_index tbl ~column:2;
      let reference = Ops.select p (Table.snapshot tbl ~tau) in
      Relation.equal (select db ~tau p) reference
      && List.for_all
           (fun op ->
             apply_index_op db op;
             let now = Database.now db in
             index_agrees db p ~tau:now && index_agrees db p ~tau:(Time.add now tau))
           ops)

(* [count_range] against a naive count: a keyed run built from random
   rows (several chunks), then random additions and removals (pending,
   or folded in once they pass the fold bound), counted over random
   bounds.  The extrema bracket every key. *)
let prop_count_range_naive =
  let open QCheck2.Gen in
  let bound =
    frequency
      [ (1, return Texp_run.Unbounded);
        (2, map (fun v -> Texp_run.Inclusive (Value.int v)) (int_range (-2) 42));
        (2, map (fun v -> Texp_run.Exclusive (Value.int v)) (int_range (-2) 42)) ]
  in
  let row = pair (int_range 0 40) (int_range 1 50) in
  let op = frequency [ (3, map (fun r -> `Add r) row); (2, map (fun i -> `Remove i) nat) ] in
  let gen =
    quad (list_size (int_range 0 1200) row) (list_size (int_range 0 400) op)
      (list_size (int_range 1 8) (pair bound bound)) (return ())
  in
  Generators.qtest "count_range = naive count over chunked and pending rows" ~count:100 gen
    (fun (initial, ops, bounds, ()) ->
      let fresh = ref 0 in
      let make (k, e) = incr fresh; (Tuple.ints [ k; !fresh ], fin e) in
      let rows = ref (List.map make initial) in
      let run = Texp_run.create ~key:1 ~arity:2 !rows in
      List.iter
        (function
          | `Add r ->
            let tu, e = make r in
            Texp_run.add run tu e;
            rows := (tu, e) :: !rows
          | `Remove i -> (
            match !rows with
            | [] -> ()
            | rs ->
              let tu, e = List.nth rs (i mod List.length rs) in
              Texp_run.remove run tu e;
              rows := List.filter (fun (tu', e') -> not (tu' == tu && e' == e)) rs))
        ops;
      let key (tu, _) = Tuple.attr tu 1 in
      let within b ~sign k =
        match b with
        | Texp_run.Unbounded -> true
        | Texp_run.Inclusive v -> sign * Value.compare k v >= 0
        | Texp_run.Exclusive v -> sign * Value.compare k v > 0
      in
      let naive lo hi =
        List.length
          (List.filter (fun r -> within lo ~sign:1 (key r) && within hi ~sign:(-1) (key r)) !rows)
      in
      List.for_all (fun (lo, hi) -> Texp_run.count_range run ~lo ~hi = naive lo hi) bounds
      &&
      match Texp_run.key_extrema run, !rows with
      | None, [] -> true
      | Some (lo, hi), rs ->
        List.for_all (fun r -> Value.compare lo (key r) <= 0 && Value.compare (key r) hi <= 0) rs
      | None, _ :: _ -> false)

let suite =
  [ Alcotest.test_case "ordered index basics" `Quick test_index_basics;
    Alcotest.test_case "plan selection" `Quick test_plans;
    Alcotest.test_case "select through an index" `Quick test_select_via_index;
    Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
    Alcotest.test_case "a tick drops wholly expired index chunks" `Quick
      test_index_drops_expired_chunks;
    prop_range_matches_filter;
    prop_access_equals_reference;
    prop_count_range_naive ]
