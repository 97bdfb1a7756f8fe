(* The physical execution layer: planner/executor equivalence with the
   naive evaluator (rows AND expiration times), the join and merge
   kernels' edge cases, the ordered-index range walk's cost bound, and
   the interpreter's generation-keyed plan cache. *)

open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx
module Gen = QCheck2.Gen

let relation_t = Alcotest.testable Relation.pp Relation.equal

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let exec t sql =
  match Interp.exec_sql t sql with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "%S failed: %s" sql msg

let expect_error t sql =
  match Interp.exec_sql t sql with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected %S to fail" sql

let msg = function
  | Interp.Msg m -> m
  | Interp.Rows _ -> Alcotest.fail "expected a message, got rows"

(* ---------- planner/executor ≡ naive evaluator ---------- *)

(* Load generated bindings into a real database.  Lazy policy so that
   advancing the clock leaves expired rows physically present — the
   live-filtering paths (Relation.exp, Table.snapshot, Access.select)
   must hide them, which is exactly what the equivalence law checks.
   Generated texps are all >= 1, so every row is insertable at clock 0. *)
let db_of_bindings bindings =
  let db = Database.create ~policy:Database.Lazy () in
  List.iter
    (fun (name, rel) ->
      let arity = Relation.arity rel in
      let columns = List.init arity (fun i -> Printf.sprintf "c%d" (i + 1)) in
      let (_ : Table.t) = Database.create_table db ~name ~columns in
      List.iter
        (fun (tuple, texp) -> Database.insert db name tuple ~texp)
        (Relation.to_list rel))
    bindings;
  (* Index some tables and not others so generated plans mix index scans
     with full scans. *)
  List.iter
    (fun (name, column) ->
      match Database.table db name with
      | Some tbl when Table.arity tbl >= column ->
        Table.create_index tbl ~column
      | Some _ | None -> ())
    [ "R1", 1; "R2", 1; "R2", 2; "R3", 2 ];
  db

let gen_case =
  let open Gen in
  let* e, bindings = Generators.expr_and_env ~lowered_aggregates:true () in
  let* tau = int_range 0 8 in
  return (e, bindings, tau)

(* Rows, per-row texps and texp(e) all agree. *)
let same (a : Eval.result) (b : Eval.result) =
  Relation.equal a.Eval.relation b.Eval.relation
  && Time.equal a.Eval.texp b.Eval.texp

let physical_equals_naive (e, bindings, tau) =
  let db = db_of_bindings bindings in
  Database.advance_to db (Time.of_int tau);
  same (Database.query db e) (Executor.run ~db (Planner.plan ~db e))

(* A traced run records one [op:] span per plan node, nested as
   [Plan.children], and EXPLAIN ANALYZE's rendering of such a run
   counts the answer's rows. *)
let spans_mirror_plan (e, bindings, tau) =
  let db = db_of_bindings bindings in
  Database.advance_to db (Time.of_int tau);
  let compiled = Planner.plan ~db e in
  let trace = Expirel_obs.Trace.create () in
  let answer = Executor.run ~trace ~db compiled in
  let spans = Expirel_obs.Trace.spans trace in
  let rec nodes p = 1 + List.fold_left (fun n c -> n + nodes c) 0 (Plan.children p) in
  let rec mirrors p (s : Expirel_obs.Trace.span) =
    let kids =
      List.filter (fun (c : Expirel_obs.Trace.span) -> c.parent = Some s.id) spans
    in
    s.name = "op:" ^ Plan.operator_name p
    && List.length kids = List.length (Plan.children p)
    && List.for_all2 mirrors (Plan.children p)
         (List.sort (fun (a : Expirel_obs.Trace.span) b -> compare a.id b.id) kids)
  in
  let rendered =
    Executor.analyze ~trace:(Expirel_obs.Trace.create ()) ~db compiled
  in
  List.length spans = nodes compiled.Plan.physical
  && (match List.rev spans with
      | root :: _ -> root.parent = None && mirrors compiled.Plan.physical root
      | [] -> false)
  && List.mem
       (Printf.sprintf "rows: %d" (Relation.cardinal answer.Eval.relation))
       (String.split_on_char '\n' rendered)

(* ---------- cut boundaries ---------- *)

(* Wider taus than gen_case: generated finite texps top out at 24, so
   taus in 20..30 exercise the all-expired cut (only Inf rows survive)
   alongside all-live (tau 0) and straddling cuts; duplicate texps are
   common at this density, so cut boundaries over coinciding expiration
   times get hit constantly. *)
let gen_cut_case =
  let open Gen in
  let* e, bindings = Generators.expr_and_env ~lowered_aggregates:true () in
  let* tau = oneof [ return 0; int_range 0 8; int_range 20 30 ] in
  return (e, bindings, tau)

(* ---------- AT: the known future ---------- *)

(* The naive answer at [tau]: every table's snapshot cut at [tau]. *)
let naive_at db tau e =
  let env name =
    Option.map (fun tbl -> Table.snapshot tbl ~tau) (Database.table db name)
  in
  Eval.run ~env ~tau e

(* The clock at [now], the query [ahead] ticks later: [AT] cuts the
   current state at the future time, through the same plans [now]
   uses. *)
let gen_at_case =
  let open Gen in
  let* e, bindings = Generators.expr_and_env ~lowered_aggregates:true () in
  let* now = int_range 0 8 in
  let* ahead = oneof [ return 0; int_range 1 8; int_range 12 30 ] in
  return (e, bindings, now, ahead)

let at_equals_naive (e, bindings, now, ahead) =
  let db = db_of_bindings bindings in
  Database.advance_to db (Time.of_int now);
  let tau = Time.of_int (now + ahead) in
  same (naive_at db tau e) (Executor.run ~db ~tau (Planner.plan ~db e))

(* ---------- the fused GROUP BY at multi-chunk scale ---------- *)

(* [gen_cut_case]'s tables stay below [Texp_run.chunk_rows], so its
   batched scans are one sorted run.  Here 300-1200 rows in random
   order leave folded chunks and pending adds whose texps interleave
   with the chunks', and — under the lazy policy — an expired prefix
   the cut skips.  Rows are (k1, k2, x, id):
   two group columns over Null/Int/Float (0.0, -0.0, two NaN payloads)
   /Str, an integer-valued aggregated column (so every sum is exact
   whatever the fold order) and a unique id. *)
let group_value =
  Gen.oneof
    [ Gen.return Value.Null;
      Gen.map Value.int (Gen.int_range 0 3);
      Gen.oneofl
        [ Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan;
          Value.Float (Int64.float_of_bits 0x7ff8000000000abcL);
          Value.Float 1.5 ];
      Gen.oneofl [ Value.str "a"; Value.str "b" ] ]

let gen_grouped_case =
  let open Gen in
  let* n = int_range 300 1200 in
  let row =
    let* k1 = group_value and* k2 = group_value in
    let* x =
      frequency [ 1, return Value.Null; 6, map Value.int (int_range (-20) 20) ]
    in
    let* texp =
      frequency
        [ 12, map Time.of_int (int_range 1 60); 1, return Time.Inf ]
    in
    return (k1, k2, x, texp)
  in
  let* rows = list_size (return n) row in
  let* group = oneofl [ []; [ 1 ]; [ 2 ]; [ 1; 2 ]; [ 2; 1 ] ] in
  let* func =
    oneofl
      Aggregate.[ Count; Sum 3; Min 3; Max 3; Avg 3 ]
  in
  let* having =
    option
      (let* op = oneofl Predicate.[ Gt; Lt; Eq ] in
       let* c = int_range (-10) 10 in
       return
         (Predicate.Cmp (op, Predicate.Col 5, Predicate.Const (Value.int c))))
  in
  let* tau = int_range 0 45 in
  return (rows, group, func, having, tau)

let print_grouped_case (rows, group, func, having, tau) =
  Printf.sprintf "%d rows, group [%s], %s, having %s, tau %d"
    (List.length rows)
    (String.concat ";" (List.map string_of_int group))
    (Aggregate.func_to_string func)
    (match having with Some p -> Predicate.to_string p | None -> "-")
    tau

let grouped_db rows tau =
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) =
    Database.create_table db ~name:"g" ~columns:[ "k1"; "k2"; "x"; "id" ]
  in
  List.iteri
    (fun id (k1, k2, x, texp) ->
      Database.insert db "g" (Tuple.of_list [ k1; k2; x; Value.int id ]) ~texp)
    rows;
  Database.advance_to db (Time.of_int tau);
  db

let grouped_expr ~group ~func ~having =
  let aggregated = Algebra.aggregate group func (Algebra.base "g") in
  let filtered =
    match having with
    | None -> aggregated
    | Some p -> Algebra.select p aggregated
  in
  Algebra.project (group @ [ 5 ]) filtered

(* The law: the fused Grouped_aggregate over batches ≡ the naive
   evaluator (rows, per-row texps, texp(e)), and the partial the batch
   fold builds ≡ [of_relation] over the live snapshot, structurally
   (polymorphic compare: every field, keys included). *)
let grouped_law (rows, group, func, having, tau) =
  let db = grouped_db rows tau in
  let run = Table.run (Database.table_exn db "g") in
  if Texp_run.length run <= Texp_run.pending run then
    QCheck2.Test.fail_report "the run holds no folded chunk";
  let e = grouped_expr ~group ~func ~having in
  let compiled = Planner.plan ~db e in
  (match compiled.Plan.physical with
   | Plan.Grouped_aggregate _ -> ()
   | _ -> QCheck2.Test.fail_report "not a fused aggregate");
  let folded, _ = Executor.partial ~db compiled in
  let snapshot =
    Table.snapshot (Database.table_exn db "g") ~tau:(Database.now db)
  in
  same (Database.query db e) (Executor.run ~db compiled)
  && compare folded (Partial_agg.of_relation ~group ~func snapshot) = 0

(* The shard side of a distributed GROUP BY ... AT: the partial folded
   at a future [tau] ≡ [of_relation] of the naive child at [tau], and
   so is the child's texp(e); the finished answer ≡ the naive one. *)
let grouped_at_law ((rows, group, func, having, now), ahead) =
  let db = grouped_db rows now in
  let tau = Time.of_int (now + ahead) in
  let e = grouped_expr ~group ~func ~having in
  let compiled = Planner.plan ~db e in
  let folded, child_texp = Executor.partial ~db ~tau compiled in
  let child = naive_at db tau (Algebra.base "g") in
  compare folded (Partial_agg.of_relation ~group ~func child.Eval.relation) = 0
  && Time.equal child_texp child.Eval.texp
  && same (naive_at db tau e) (Executor.run ~db ~tau compiled)

(* ---------- out-of-order accumulation ---------- *)

(* Index scans, joins and [of_relation]'s tuple order hand the
   accumulator rows out of texp order.  Here texps are mostly distinct
   and unsorted, so a group's rows keep opening slices below its newest
   one, and float values make any change to a slice's fold order show
   in the sum's bits.  Keys are never compare-equal without being equal
   (no -0.0, one NaN at most), so which of them a group carries cannot
   depend on order.  Rows are (k, _, x, id) as in [grouped_db]. *)
let gen_unordered_case =
  let open Gen in
  let* n = int_range 0 1500 in
  let row =
    let* k =
      oneofl
        [ Value.Null; Value.int 0; Value.int 1; Value.str "a"; Value.Float 1.5 ]
    in
    let* x =
      frequency
        [ 1, return Value.Null;
          3, map Value.int (int_range (-50) 50);
          3, map (fun f -> Value.Float f) (float_range (-1e6) 1e6) ]
    in
    let* texp =
      frequency
        [ 4, map Time.of_int (int_range 1 1_000_000);
          2, map Time.of_int (int_range 1 12);
          1, return Time.Inf ]
    in
    return (k, Value.Null, x, texp)
  in
  (* Shrinking a list this long one element at a time takes minutes. *)
  let* rows = no_shrink (list_size (return n) row) in
  let* group = oneofl [ []; [ 1 ] ] in
  let* func = oneofl Aggregate.[ Count; Sum 3; Min 3; Max 3; Avg 3 ] in
  return (rows, group, func)

let print_unordered_case (rows, group, func) =
  Printf.sprintf "%d rows, group [%s], %s" (List.length rows)
    (String.concat ";" (List.map string_of_int group))
    (Aggregate.func_to_string func)

(* The law: the rows in arrival order fold to the same partial, bit for
   bit, as the same rows stable-sorted by texp — a stream that only
   ever updates a group's newest slice or appends one, with each
   slice's rows still in arrival order.  And through an index range
   scan, which yields rows in id order, not texp order, the batched
   GROUP BY ≡ the naive evaluator (integer values there: the evaluator
   folds a group's rows in its own order). *)
let unordered_law (rows, group, func) =
  let ids = List.mapi (fun id r -> (id, r)) rows in
  let sorted =
    List.stable_sort
      (fun (_, (_, _, _, a)) (_, (_, _, _, b)) -> Time.compare a b)
      ids
  in
  let by_row ids =
    let acc = Partial_agg.create_acc ~group ~func in
    Option.iter
      (Partial_agg.observe_batch acc)
      (Batch.of_rows ~arity:4
         (List.map
            (fun (id, (k1, k2, x, texp)) ->
              (Tuple.of_list [ k1; k2; x; Value.int id ], texp))
            ids));
    Partial_agg.of_acc acc
  in
  let integral =
    List.map
      (fun (k1, k2, x, texp) ->
        let x =
          match x with Value.Float f -> Value.int (int_of_float f) | v -> v
        in
        (k1, k2, x, texp))
      rows
  in
  let db = grouped_db integral 0 in
  Table.create_index (Database.table_exn db "g") ~column:4;
  Database.bump_generation db;
  let e =
    Algebra.project (group @ [ 5 ])
      (Algebra.aggregate group func
         (Algebra.select
            (Predicate.Cmp
               (Predicate.Ge, Predicate.Col 4, Predicate.Const (Value.int 0)))
            (Algebra.base "g")))
  in
  let compiled = Planner.plan ~db e in
  (match compiled.Plan.physical with
   | Plan.Grouped_aggregate _ -> ()
   | _ -> QCheck2.Test.fail_report "not a fused aggregate");
  compare (by_row ids) (by_row sorted) = 0
  && same (Database.query db e) (Executor.run ~db compiled)

(* ---------- merging partials ---------- *)

(* An integer-valued relation split into k disjoint fragments by a hash
   of column 1, as the cluster's shards hold it.  Texps mix the shared
   generator's range with a narrow one, so groups often repeat their
   earliest texp, and [Inf]. *)
let gen_merge_case =
  let open Gen in
  let* rows =
    list_size (int_range 0 80)
      (let* a = int_range 0 6 and* b = int_range (-5) 5 in
       let* texp =
         frequency
           [ 3, Generators.texp;
             2, map Time.of_int (int_range 1 4);
             1, return Time.Inf ]
       in
       return (Tuple.ints [ a; b ], texp))
  in
  let* k = int_range 1 4 in
  let* group = oneofl [ []; [ 1 ]; [ 2 ]; [ 1; 2 ] ] in
  let* func = oneofl Aggregate.[ Count; Sum 2; Min 2; Max 2; Avg 2 ] in
  return (Relation.of_list ~arity:2 rows, k, group, func)

let print_merge_case (r, k, group, func) =
  Printf.sprintf "%d rows, k %d, group [%s], %s" (Relation.cardinal r) k
    (String.concat ";" (List.map string_of_int group))
    (Aggregate.func_to_string func)

(* Table 1's COUNT form: every group of a COUNT partial of [r] is at
   most two slices — the members of [r] expiring at the group's
   earliest texp, then the rest under its latest texp. *)
let count_form ~group ~func r partial =
  func <> Aggregate.Count
  || List.for_all
       (fun { Partial_agg.key; slices } ->
         let texps =
           Relation.fold
             (fun t texp acc ->
               if List.equal Value.equal (List.map (Tuple.attr t) group) key
               then texp :: acc
               else acc)
             r []
         in
         let first = Time.min_list texps and last = Time.max_list texps in
         let at_first = List.length (List.filter (Time.equal first) texps) in
         match slices with
         | [ s ] ->
           Time.equal s.Partial_agg.s_texp first
           && Time.equal first last
           && s.Partial_agg.s_rows = List.length texps
         | [ s; s' ] ->
           Time.equal s.Partial_agg.s_texp first
           && s.Partial_agg.s_rows = at_first
           && Time.equal s'.Partial_agg.s_texp last
           && Time.(first < last)
           && s'.Partial_agg.s_rows = List.length texps - at_first
         | _ -> false)
       partial

(* The law: the fragments' partials merged ≡ the whole's partial ≡ the
   naive [Ops.aggregate Exact] composed with the projection (rows,
   per-row texps, invalidation); the merge commutes; and every COUNT
   partial — per fragment, merged, and accumulated from rows in
   descending texp order — is in Table 1's two-slice form. *)
let merge_law (whole, k, group, func) =
  let frags =
    List.init k (fun i ->
        Relation.filter
          (fun t _ -> Value.hash (Tuple.attr t 1) land max_int mod k = i)
          whole)
  in
  let partials = List.map (Partial_agg.of_relation ~group ~func) frags in
  let finalize p =
    Partial_agg.finalize ~group ~func ~child_arity:2 ~projection:(group @ [ 3 ])
      p
  in
  let merged = Partial_agg.merge_all ~func partials in
  let merged_rows, merged_inv = finalize merged in
  let whole_rows, whole_inv =
    finalize (Partial_agg.of_relation ~group ~func whole)
  in
  let naive_rows, naive_inv =
    let r, inv = Ops.aggregate Aggregate.Exact ~tau:Time.zero ~group func whole in
    (Ops.project (group @ [ 3 ]) r, inv)
  in
  let descending =
    let acc = Partial_agg.create_acc ~group ~func in
    Option.iter
      (Partial_agg.observe_batch acc)
      (Batch.of_rows ~arity:2
         (List.stable_sort
            (fun (_, a) (_, b) -> Time.compare b a)
            (Relation.to_list whole)));
    Partial_agg.of_acc acc
  in
  let commutes =
    match partials with
    | a :: b :: _ ->
      compare
        (Partial_agg.merge_all ~func [ a; b ])
        (Partial_agg.merge_all ~func [ b; a ])
      = 0
    | [ _ ] | [] -> true
  in
  Relation.equal merged_rows whole_rows
  && Time.equal merged_inv whole_inv
  && Relation.equal merged_rows naive_rows
  && Time.equal merged_inv naive_inv
  && commutes
  && List.for_all2 (count_form ~group ~func) frags partials
  && count_form ~group ~func whole merged
  && count_form ~group ~func whole descending

(* ---------- the batch kernel ---------- *)

(* GROUP BY values the group table must tell apart or unite exactly as
   [Value.compare] does: Ints (also beside the equal-looking Floats),
   both zeros, NaNs with different payloads and signs, strings, Bools
   and Null. *)
let key_value =
  Gen.frequency
    [ 4, Gen.map Value.int (Gen.int_range (-3) 3);
      3,
      Gen.oneofl
        [ Value.Float 0.;
          Value.Float (-0.);
          Value.Float 1.;
          Value.Float Float.nan;
          Value.Float (-.Float.nan);
          Value.Float (Int64.float_of_bits 0x7FF0000000000001L) ];
      1, Gen.map Value.str (Gen.oneofl [ "a"; "b" ]);
      1, Gen.map Value.bool Gen.bool;
      1, Gen.return Value.Null ]

(* Rows (k1, k2, k3, x, id) spread over 1-4 batches, each either
   texp-ascending or in generated order, and each maybe narrowed by a
   selection vector on the id.  Ids make every row a distinct tuple, so
   the batches hold a set.  [x] sums exactly in any order (Ints and
   halves), so slices built in batch order and in tuple order agree bit
   for bit. *)
let gen_kernel_case =
  let open Gen in
  let* n = int_range 0 120 in
  let row =
    let* k1 = key_value and* k2 = key_value and* k3 = key_value in
    let* x =
      frequency
        [ 1, return Value.Null;
          3, map Value.int (int_range (-20) 20);
          2, map (fun h -> Value.Float (float_of_int h /. 2.)) (int_range (-9) 9) ]
    in
    let* texp =
      frequency
        [ 6, map Time.of_int (int_range 1 30); 1, return Time.Inf ]
    in
    return (k1, k2, k3, x, texp)
  in
  let* rows = list_size (return n) row in
  let* cuts = list_size (int_range 0 3) (int_range 0 n) in
  let* shapes =
    list_size (return 4)
      (pair bool (opt (pair (int_range 2 4) (int_range 0 3))))
  in
  let* width = int_range 0 3 in
  let* order = shuffle_l [ 1; 2; 3 ] in
  let group = List.filteri (fun i _ -> i < width) order in
  let* func =
    oneofl
      Aggregate.
        [ Count; Sum 4; Min 4; Max 4; Avg 4; Min 1; Max 2; Avg 3; Count ]
  in
  return (rows, List.sort_uniq compare cuts, shapes, group, func)

let print_kernel_case (rows, cuts, _, group, func) =
  Printf.sprintf "%d rows, cuts [%s], group [%s], %s" (List.length rows)
    (String.concat ";" (List.map string_of_int cuts))
    (String.concat ";" (List.map string_of_int group))
    (Aggregate.func_to_string func)

let kernel_batches (rows, cuts, shapes, _, _) =
  let rows =
    List.mapi
      (fun id (k1, k2, k3, x, texp) ->
        (Tuple.of_list [ k1; k2; k3; x; Value.int id ], texp))
      rows
  in
  let rec split from cuts rows =
    match cuts with
    | [] -> [ rows ]
    | c :: cuts ->
      let here = List.filteri (fun i _ -> i < c - from) rows in
      let rest = List.filteri (fun i _ -> i >= c - from) rows in
      here :: split c cuts rest
  in
  List.filter_map
    (fun (chunk, (ascending, sel)) ->
      let chunk =
        if ascending then
          List.stable_sort (fun (_, a) (_, b) -> Time.compare a b) chunk
        else chunk
      in
      Option.bind (Batch.of_rows ~arity:5 chunk) (fun b ->
          match sel with
          | None -> Some b
          | Some (m, r) ->
            Batch.filter
              (fun get ->
                match get 5 with
                | Value.Int id -> id mod m <> r
                | _ -> true)
              b))
    (List.combine (split 0 cuts rows)
       (List.filteri (fun i _ -> i <= List.length cuts) shapes))

(* The law: the partial [observe_batch] folds from the batches ≡
   [of_relation] of the set they hold (structurally), and finalised ≡
   the naive [Ops.aggregate Exact] composed with the projection (rows,
   per-row texps, invalidation). *)
let kernel_law ((_, _, _, group, func) as case) =
  let batches = kernel_batches case in
  let rel = Batch.to_relation ~arity:5 batches in
  let acc = Partial_agg.create_acc ~group ~func in
  List.iter (Partial_agg.observe_batch acc) batches;
  let folded = Partial_agg.of_acc acc in
  let projection = group @ [ 6 ] in
  let rows, inv =
    Partial_agg.finalize ~group ~func ~child_arity:5 ~projection folded
  in
  let naive_rows, naive_inv =
    let r, inv = Ops.aggregate Aggregate.Exact ~tau:Time.zero ~group func rel in
    (Ops.project projection r, inv)
  in
  compare folded (Partial_agg.of_relation ~group ~func rel) = 0
  && Relation.equal rows naive_rows
  && Time.equal inv naive_inv

(* [Partial_agg.Key]'s inlined Int cases agree with [Value]'s. *)
let key_agrees (a, b) =
  Partial_agg.Key.hash a = Value.hash a
  && Partial_agg.Key.equal a b = Value.equal a b

let gen_key_pair =
  let v =
    Gen.frequency
      [ 3, Gen.map Value.int Gen.int;
        2, Gen.map Value.int (Gen.int_range (-2) 2);
        2, key_value;
        1, Gen.map (fun f -> Value.Float f) Gen.float ]
  in
  Gen.pair v v

let sign_of_key = function
  | { Partial_agg.key = [ Value.Float f ]; _ } -> Float.sign_bit f
  | _ -> Alcotest.fail "expected one Float key"

(* Of compare-equal keys a group carries the one seen last — through
   the row kernel and through the merge. *)
let test_last_seen_key () =
  let count_of keys =
    let acc = Partial_agg.create_acc ~group:[ 1 ] ~func:Aggregate.Count in
    List.iter
      (fun k ->
        Option.iter
          (Partial_agg.observe_batch acc)
          (Batch.of_rows ~arity:1 [ (Tuple.of_list [ Value.Float k ], Time.Inf) ]))
      keys;
    Partial_agg.of_acc acc
  in
  let signs p = List.map sign_of_key p in
  Alcotest.(check (list bool)) "0.0 then -0.0" [ true ] (signs (count_of [ 0.; -0. ]));
  Alcotest.(check (list bool)) "-0.0 then 0.0" [ false ] (signs (count_of [ -0.; 0. ]));
  Alcotest.(check (list bool)) "one batch: 0.0, -0.0" [ true ]
    (signs
       (let acc = Partial_agg.create_acc ~group:[ 1 ] ~func:(Aggregate.Max 1) in
        Option.iter
          (Partial_agg.observe_batch acc)
          (Batch.of_rows ~arity:1
             [ (Tuple.of_list [ Value.Float 0. ], Time.of_int 3);
               (Tuple.of_list [ Value.Float (-0.) ], Time.of_int 2) ]);
        Partial_agg.of_acc acc));
  Alcotest.(check (list bool)) "merged: 0.0 then -0.0" [ true ]
    (signs
       (Partial_agg.merge_all ~func:Aggregate.Count
          [ count_of [ 0. ]; count_of [ -0. ] ]))

(* Once its groups exist, the COUNT kernel allocates nothing per row:
   10^5 rows into 10 groups, texps scrambled, through a selection
   vector. *)
let test_count_fold_allocates_nothing () =
  let n = 100_000 in
  let rows =
    List.init n (fun i ->
        ( Tuple.ints [ i mod 10; i ],
          if i mod 97 = 0 then Time.Inf else Time.of_int (1 + (i * 7919 mod n)) ))
  in
  let batch = Option.get (Batch.of_rows ~arity:2 rows) in
  let selected =
    Option.get
      (Batch.filter
         (fun get -> match get 2 with Value.Int i -> i mod 5 <> 0 | _ -> true)
         batch)
  in
  let acc = Partial_agg.create_acc ~group:[ 1 ] ~func:Aggregate.Count in
  Partial_agg.observe_batch acc batch;
  let before = Gc.minor_words () in
  Partial_agg.observe_batch acc batch;
  Partial_agg.observe_batch acc selected;
  let words = Gc.minor_words () -. before in
  let per_row = words /. float_of_int (n + Batch.length selected) in
  if per_row >= 0.1 then
    Alcotest.failf "%.2f minor words per row (%.0f in all)" per_row words;
  let counts =
    List.map
      (function
        | { Partial_agg.slices; _ } ->
          List.fold_left (fun a s -> a + s.Partial_agg.s_rows) 0 slices)
      (Partial_agg.of_acc acc)
  in
  Alcotest.(check (list int)) "every row counted"
    (List.init 10 (fun k -> (2 * n / 10) + if k mod 5 = 0 then 0 else n / 10))
    counts

(* exp_tau keeps texp > tau (strict): with texps {5,5,5,7} and tau = 5
   the binary-search cut must land after the LAST of the coinciding 5s,
   not the first — the classic lower/upper-bound off-by-one. *)
let test_cut_duplicate_texp_boundary () =
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) = Database.create_table db ~name:"t" ~columns:[ "x" ] in
  List.iter
    (fun (x, texp) ->
      Database.insert db "t"
        (Tuple.of_list [ Value.int x ])
        ~texp:(Time.of_int texp))
    [ 1, 5; 2, 5; 3, 5; 4, 7 ];
  Database.advance_to db (Time.of_int 5);
  (* Project-over-base forces the cut scan (a bare scan at the root
     serves the cached snapshot). *)
  let e = Algebra.Project ([ 1 ], Algebra.Base "t") in
  let batched = Executor.run ~db (Planner.plan ~db e) in
  Alcotest.(check int) "only the texp-7 row survives tau=5" 1
    (Relation.cardinal batched.Eval.relation);
  Alcotest.check relation_t "batched = naive at the boundary"
    (Database.query db e).Eval.relation batched.Eval.relation;
  Alcotest.(check int) "live_estimate agrees" 1
    (Table.live_estimate (Database.table_exn db "t") ~tau:(Time.of_int 5))

(* Enough rows for several chunks, cut mid-table: wholly
   expired chunks are skipped, wholly live ones accepted, one chunk
   straddles. *)
let test_multi_chunk_cut () =
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) = Database.create_table db ~name:"t" ~columns:[ "x" ] in
  let n = 3000 in
  for i = 1 to n do
    Database.insert db "t" (Tuple.of_list [ Value.int i ])
      ~texp:(Time.of_int i)
  done;
  let tau = 1500 in
  Database.advance_to db (Time.of_int tau);
  let table = Database.table_exn db "t" in
  let chunks tau =
    let passed = ref 0 in
    Texp_run.scan_range (Table.run table) ~tau:(Time.of_int tau) ~lo:Texp_run.Unbounded
      ~hi:Texp_run.Unbounded ~visited:(ref 0) ~dropped:(ref 0) (fun _ _ -> incr passed);
    !passed
  in
  Alcotest.(check bool) "at least one chunk per chunk_rows rows" true
    (chunks 0 >= (n + Texp_run.chunk_rows - 1) / Texp_run.chunk_rows);
  Alcotest.(check bool) "wholly expired chunks are skipped" true (chunks tau < chunks 0);
  let e = Algebra.Project ([ 1 ], Algebra.Base "t") in
  let batched = Executor.run ~db (Planner.plan ~db e) in
  Alcotest.(check int) "live suffix survives" (n - tau)
    (Relation.cardinal batched.Eval.relation);
  Alcotest.check relation_t "batched = naive across chunks"
    (Database.query db e).Eval.relation batched.Eval.relation

(* The cost model's scan estimates follow live rows, not physical ones:
   a churny lazily-vacuumed table mostly full of corpses must not look
   expensive to scan. *)
let test_estimate_scales_by_live_rows () =
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) = Database.create_table db ~name:"t" ~columns:[ "x" ] in
  for i = 1 to 100 do
    Database.insert db "t" (Tuple.of_list [ Value.int i ])
      ~texp:(Time.of_int (if i <= 90 then 5 else 50))
  done;
  Database.advance_to db (Time.of_int 10);
  let { Plan.physical; _ } = Planner.plan ~db (Algebra.Base "t") in
  Alcotest.(check int) "90 expired-unvacuumed rows don't count" 10
    (Planner.estimate_rows db physical)

(* ---------- join kernels ---------- *)

let rel arity rows =
  Relation.of_list ~arity
    (List.map (fun (vs, t) -> Tuple.of_list vs, Time.of_int t) rows)

(* Tables "l" and "r" holding exactly these relations. *)
let db_of_sides l r = db_of_bindings [ "l", l; "r", r ]

let side name = Plan.Scan { name; pred = None; access = Access.Full_scan }

(* [l ⋈_pred r] pinned to one join kernel whatever the cost model would
   pick: the kernels' edge cases must hold on inputs far too small for
   the planner to hash. *)
let join_plan ~hash pred =
  { Plan.logical = Algebra.join pred (Algebra.base "l") (Algebra.base "r");
    physical =
      (if hash then
         Plan.Hash_join
           { pairs = [ (1, 1) ]; pred; left = side "l"; right = side "r" }
       else Plan.Nested_loop { pred; left = side "l"; right = side "r" })
  }

(* The hash kernel's answer, checked against the naive evaluator. *)
let hash_join_checked pred l r =
  let db = db_of_sides l r in
  let compiled = join_plan ~hash:true pred in
  let out = Executor.run ~db compiled in
  Alcotest.check relation_t "hash join = naive join"
    (Database.query db compiled.Plan.logical).Eval.relation out.Eval.relation;
  out.Eval.relation

(* The equi-join of two binary relations on their first columns, with
   the full predicate spelled out the way the planner extracts it. *)
let join_pred =
  Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Col 3)

let gen_join_inputs =
  Gen.pair (Generators.relation ~arity:2) (Generators.relation ~arity:2)

let hash_equals_nested (l, r) =
  let db = db_of_sides l r in
  let run hash = Executor.run ~db (join_plan ~hash join_pred) in
  let naive = Database.query db (join_plan ~hash:true join_pred).Plan.logical in
  same naive (run true) && same naive (run false)

let unary_eq = Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Col 2)

let test_hash_join_numeric_coercion () =
  (* Value.cmp calls Int 1 and Float 1.0 equal, so the hash join must
     bucket them together. *)
  let l = rel 1 [ [ Value.int 1 ], 5 ] in
  let r = rel 1 [ [ Value.Float 1.0 ], 7 ] in
  Alcotest.(check int) "Int 1 joins Float 1.0" 1
    (Relation.cardinal (hash_join_checked unary_eq l r))

let test_hash_join_null_keys () =
  (* Null equals nothing under Value.cmp — not even Null — so
     Null-keyed rows join nothing on either side. *)
  let l = rel 1 [ [ Value.Null ], 5; [ Value.int 1 ], 5 ] in
  let r = rel 1 [ [ Value.Null ], 7; [ Value.int 1 ], 7 ] in
  Alcotest.(check int) "only the 1-1 pair survives" 1
    (Relation.cardinal (hash_join_checked unary_eq l r))

let test_hash_join_nan_keys () =
  (* Value.cmp says NaN = NaN while structural hashing disagrees; the
     kernel must fall back to looping for NaN-keyed probes rather than
     silently losing the pair. *)
  let nan = Value.Float Float.nan in
  let l = rel 1 [ [ nan ], 5; [ Value.int 2 ], 5 ] in
  let r = rel 1 [ [ nan ], 7; [ Value.int 2 ], 7 ] in
  Alcotest.(check int) "NaN-NaN and 2-2 both survive" 2
    (Relation.cardinal (hash_join_checked unary_eq l r))

let test_hash_join_multi_key_residual () =
  (* Two equi-conjuncts plus a non-equi residual: bucket equality only
     accelerates, the full predicate decides. *)
  let l =
    rel 2
      [ [ Value.int 1; Value.int 10 ], 5;
        [ Value.int 1; Value.int 1 ], 5;
        [ Value.int 2; Value.int 10 ], 5 ]
  in
  let r =
    rel 2 [ [ Value.int 1; Value.int 3 ], 7; [ Value.int 2; Value.int 9 ], 7 ]
  in
  let pred =
    Predicate.conj
      [ Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Col 3);
        Predicate.Cmp (Predicate.Gt, Predicate.Col 2, Predicate.Col 4) ]
  in
  Alcotest.(check int) "residual filters within buckets: two survivors" 2
    (Relation.cardinal (hash_join_checked pred l r))

let test_hash_join_empty_sides () =
  let empty = Relation.empty ~arity:1 in
  let one = rel 1 [ [ Value.int 1 ], 5 ] in
  List.iter
    (fun (l, r) ->
      Alcotest.(check int) "empty join" 0
        (Relation.cardinal (hash_join_checked unary_eq l r)))
    [ empty, one; one, empty; empty, empty ]

(* ---------- set operators ---------- *)

let gen_set_inputs =
  Gen.pair (Generators.relation ~arity:2) (Generators.relation ~arity:2)

(* The planned set operator over tables "l" and "r" ≡ the naive one —
   rows, per-row texps and texp(e) (a difference's first reappearance
   included). *)
let set_law op (l, r) =
  let db = db_of_sides l r in
  let e = op (Algebra.base "l") (Algebra.base "r") in
  same (Database.query db e) (Executor.run ~db (Planner.plan ~db e))

let merge_union_law = set_law Algebra.union
let merge_intersect_law = set_law Algebra.intersect
let merge_diff_law = set_law Algebra.diff

(* R − S hides a tuple of R while S holds it: the difference changes
   when S's copy expires before R's (Section 2.6.2), so texp(e) is the
   earliest such S expiration, found by the merge itself.  A tuple that
   S outlives never reappears. *)
let test_diff_texp_is_first_reappearance () =
  let unary rows = rel 1 (List.map (fun (v, t) -> ([ Value.int v ], t)) rows) in
  List.iter
    (fun (label, l, r, expected) ->
      let db = db_of_sides (unary l) (unary r) in
      let e = Algebra.diff (Algebra.base "l") (Algebra.base "r") in
      let planned = Executor.run ~db (Planner.plan ~db e) in
      Alcotest.(check string) label expected (Time.to_string planned.Eval.texp);
      Alcotest.(check bool) (label ^ ": as naive") true
        (same (Database.query db e) planned))
    [ ("a reappears at 4", [ (1, 10) ], [ (1, 4) ], "4");
      ("the earliest of two", [ (1, 10); (2, 10); (3, 3) ],
       [ (1, 4); (2, 6); (3, 8) ], "4");
      ("S outlives R", [ (1, 3) ], [ (1, 8) ], "inf") ]

(* The planner takes an aggregate only as sqlx lowers GROUP BY: under a
   projection of GROUP BY positions and the aggregate, maybe over a
   HAVING on them.  An ill-formed expression still raises the oracle's
   error first. *)
let test_planner_refuses_unlowered_aggregates () =
  let db = db_of_sides (rel 2 []) (rel 2 []) in
  let count = Algebra.aggregate [ 1 ] Aggregate.Count (Algebra.base "l") in
  let having = Predicate.(Cmp (Gt, Col 2, Const (Value.int 0))) in
  List.iter
    (fun (label, exn, e) ->
      Alcotest.check_raises label exn (fun () ->
          ignore (Planner.plan ~db e : Plan.compiled)))
    [ ( "bare aggregate",
        Invalid_argument
          "Planner.plan: an aggregate plans only under a GROUP BY projection",
        count );
      ( "HAVING over no projection",
        Invalid_argument
          "Planner.plan: an aggregate plans only under a GROUP BY projection",
        Algebra.select having count );
      ( "a non-GROUP BY column kept",
        Invalid_argument
          "Planner.plan: projection keeps column 2, neither grouped nor the \
           aggregate",
        Algebra.project [ 1; 2; 3 ] count );
      ( "HAVING on a non-GROUP BY column",
        Invalid_argument
          (Printf.sprintf
             "Planner.plan: HAVING [%s] reads a column neither grouped nor \
              the aggregate"
             (Predicate.to_string having)),
        Algebra.project [ 1; 3 ] (Algebra.select having count) );
      ( "unknown relation first",
        Errors.Unknown_relation "nope",
        Algebra.aggregate [ 1 ] Aggregate.Count (Algebra.base "nope") );
      ( "arity mismatch first",
        Errors.Arity_mismatch "grouping position 5 outside 1..2",
        Algebra.project [ 3 ]
          (Algebra.aggregate [ 5 ] Aggregate.Count (Algebra.base "l")) ) ]

(* Every GROUP BY sqlx lowers plans the fused node at its root. *)
let test_sql_group_by_plans_fused () =
  let l =
    rel 2
      [ ([ Value.int 1; Value.int 10 ], 5); ([ Value.int 1; Value.int 20 ], 7);
        ([ Value.int 2; Value.int 30 ], 9) ]
  in
  let db = db_of_sides l l in
  let catalog name = Option.map Table.columns (Database.table db name) in
  List.iter
    (fun sql ->
      let { Lower.expr; _ } = Lower.lower_query ~catalog (Parser.parse_query sql) in
      let compiled = Planner.plan ~db expr in
      (match compiled.Plan.physical with
       | Plan.Grouped_aggregate _ -> ()
       | p -> Alcotest.failf "%s plans %s" sql (Plan.describe p));
      Alcotest.(check bool) (sql ^ ": as naive") true
        (same (Database.query db expr) (Executor.run ~db compiled)))
    [ "SELECT c1, COUNT(*) FROM l GROUP BY c1";
      "SELECT COUNT(*) FROM l";
      "SELECT SUM(c2) FROM l WHERE c1 > 1";
      "SELECT c2, c1, MAX(c2) FROM l GROUP BY c1, c2 HAVING MAX(c2) > 10 AND c1 < 5";
      "SELECT AVG(c2), c1 FROM l GROUP BY c1 HAVING c1 = 1";
      "SELECT l.c1, MIN(r.c2) FROM l JOIN r ON l.c1 = r.c1 GROUP BY l.c1" ]

(* A union leaves a tuple held by both sides twice in its batches; the
   fused aggregate and the sketches must count each set member once. *)
let test_folds_count_set_members () =
  let l =
    rel 2 [ [ Value.int 1; Value.int 10 ], 5; [ Value.int 2; Value.int 20 ], 7 ]
  in
  let r = rel 2 [ [ Value.int 1; Value.int 10 ], 9 ] in
  let db = db_of_sides l r in
  let union = Algebra.union (Algebra.base "l") (Algebra.base "r") in
  let grouped =
    Algebra.project [ 1; 3 ] (Algebra.aggregate [ 1 ] Aggregate.Count union)
  in
  let compiled = Planner.plan ~db grouped in
  (match compiled.Plan.physical with
   | Plan.Grouped_aggregate { child = Plan.Merge_union _; _ } -> ()
   | _ -> Alcotest.fail "not a fused aggregate over a union");
  Alcotest.(check bool) "fused GROUP BY over a union = naive" true
    (same (Database.query db grouped) (Executor.run ~db compiled));
  let approx = Approx.Count { epsilon = 0.01 } in
  let count = Executor.run ~db (Planner.plan ~db ~approx union) in
  match Relation.to_list count.Eval.relation with
  | [ (t, _) ] ->
    Alcotest.(check (option (float 0.)))
      "APPROX_COUNT sees the union's two rows" (Some 2.)
      (Value.to_float (Tuple.attr t 1))
  | _ -> Alcotest.fail "APPROX_COUNT answers one row"

(* ---------- ordered-index range cost ---------- *)

let test_range_visits_only_the_answer () =
  (* 10k distinct keys, one tuple each; an Exclusive-bounded range must
     examine only the answer's rows plus a constant — the seek is
     O(log n), not a scan from the smallest key. *)
  let tbl = Table.create ~name:"t" ~columns:[ "k" ] () in
  let n = 10_000 in
  for i = 1 to n do
    Table.insert tbl (Tuple.of_list [ Value.int i ]) ~texp:Time.Inf
  done;
  Table.create_index tbl ~column:1;
  let visited = ref 0 and answer = ref 0 in
  Texp_run.scan_range (Table.index tbl ~column:1) ~tau:Time.zero ~visited
    ~dropped:(ref 0)
    ~lo:(Texp_run.Exclusive (Value.int 9_900))
    ~hi:(Texp_run.Inclusive (Value.int 9_950))
    (fun c sel ->
      answer :=
        !answer
        + match sel with Some s -> Array.length s | None -> Texp_run.chunk_len c);
  Alcotest.(check int) "answer size" 50 !answer;
  Alcotest.(check bool)
    (Printf.sprintf "visited %d <= answer rows + 2" !visited)
    true
    (!visited <= 50 + 2)

(* ---------- the interpreter's plan cache ---------- *)

let stats t = Interp.plan_cache_stats t

let setup_indexed () =
  let t = Interp.create () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE pol (uid, deg)";
      "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
      "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
      "INSERT INTO pol VALUES (3, 35) EXPIRES 10" ];
  t

let test_plan_cache_hits () =
  let t = setup_indexed () in
  let before = stats t in
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  let after_first = stats t in
  Alcotest.(check int) "first run misses" (before.Interp.misses + 1)
    after_first.Interp.misses;
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  let after = stats t in
  Alcotest.(check int) "reruns hit" (after_first.Interp.hits + 2)
    after.Interp.hits;
  Alcotest.(check int) "no further misses" after_first.Interp.misses
    after.Interp.misses;
  Alcotest.(check bool) "cache holds entries" true (after.Interp.entries >= 1);
  (* A text that fails to parse is never cached: it fails again, and
     neither the entries nor the query counters move. *)
  expect_error t "SELEC uid FROM pol";
  expect_error t "SELEC uid FROM pol";
  let after_bad = stats t in
  Alcotest.(check int) "no entry for a parse failure" after.Interp.entries
    after_bad.Interp.entries;
  Alcotest.(check int) "a parse failure is no query request"
    (after.Interp.hits + after.Interp.misses)
    (after_bad.Interp.hits + after_bad.Interp.misses)

(* A statement's answer through the cache, and the same statement run
   uncached (no text): rows and texp(e) must agree. *)
let check_cached_equals_uncached t sql =
  let answer = function
    | Interp.Rows { relation; texp_e; _ } -> (relation, texp_e)
    | Interp.Msg m -> Alcotest.failf "%s: expected rows, got %S" sql m
  in
  let cached_rel, cached_texp = answer (exec t sql) in
  let uncached_rel, uncached_texp =
    match Interp.exec t (Parser.parse_statement sql) with
    | Ok outcome -> answer outcome
    | Error e -> Alcotest.failf "%s uncached: %s" sql e
  in
  Alcotest.check relation_t (sql ^ ": cached rows = uncached") uncached_rel
    cached_rel;
  Alcotest.(check bool)
    (sql ^ ": cached texp(e) = uncached") true
    (Time.equal cached_texp uncached_texp)

let test_plan_cache_invalidated_by_ddl () =
  let t = setup_indexed () in
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  let cached = stats t in
  (* Any DDL bumps the catalog generation; the same statement must
     replan rather than serve a stale physical plan. *)
  ignore (exec t "CREATE TABLE other (x)");
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  let after_create = stats t in
  Alcotest.(check int) "CREATE TABLE forces a replan" (cached.Interp.misses + 1)
    after_create.Interp.misses;
  let grouped = "SELECT deg, COUNT(*) FROM pol GROUP BY deg" in
  (* twice: the second run is a hit and promotes the grouped COUNT *)
  check_cached_equals_uncached t grouped;
  check_cached_equals_uncached t grouped;
  let before_index = stats t in
  ignore (exec t "CREATE INDEX ON pol (deg)");
  check_cached_equals_uncached t "SELECT uid FROM pol WHERE deg = 25";
  let after_index = stats t in
  Alcotest.(check int) "CREATE INDEX forces a replan"
    (before_index.Interp.misses + 1)
    after_index.Interp.misses;
  check_cached_equals_uncached t "SELECT uid FROM pol WHERE deg = 25";
  check_cached_equals_uncached t grouped;
  check_cached_equals_uncached t grouped;
  let before_drop = stats t in
  ignore (exec t "DROP TABLE other");
  ignore (exec t "SELECT uid FROM pol WHERE deg = 25");
  let after_drop = stats t in
  Alcotest.(check int) "DROP TABLE forces a replan"
    (before_drop.Interp.misses + 1)
    after_drop.Interp.misses;
  (* 65 distinct shapes (a shape is a text with its literals as slots:
     uid points ORed) evict every earlier entry (the cache holds 64),
     the promoted grouped COUNT's included; the evicted statements
     replan and still answer as an uncached run does. *)
  for uid = 1 to 65 do
    let points = List.init uid (fun i -> Printf.sprintf "uid = %d" (i + 1)) in
    ignore (exec t ("SELECT deg FROM pol WHERE " ^ String.concat " OR " points))
  done;
  let after_churn = stats t in
  Alcotest.(check int) "the cache stays bounded" 64 after_churn.Interp.entries;
  Alcotest.(check (pair int int)) "the churn ended the promoted entry" (0, 0)
    (Interp.standing_aggregates t);
  check_cached_equals_uncached t grouped;
  check_cached_equals_uncached t "SELECT uid FROM pol WHERE deg = 25";
  Alcotest.(check int) "evicted statements replan"
    (after_churn.Interp.misses + 2)
    (stats t).Interp.misses;
  ignore (exec t "INSERT INTO pol VALUES (4, 25) EXPIRES 12");
  check_cached_equals_uncached t grouped;
  check_cached_equals_uncached t grouped;
  check_cached_equals_uncached t "SELECT uid FROM pol WHERE deg = 25"

(* ---------- statements cached by literal shape ---------- *)

(* A statement text with typed holes: a value operand or INSERT value
   ([V]: an int, negative ones included, a float, a string with quotes
   and dashes, or NULL), a clause integer ([N]: TTL, EXPIRES, AT,
   LIMIT, TICK, ADVANCE TO, HAVING's bound), a SAMPLE size ([K], below
   1 too) and an APPROX_COUNT bound ([E], outside (0, 1) too). *)
type hole =
  | V
  | N
  | K
  | E

let shapes =
  [ [ `T "SELECT a, b FROM t WHERE a = "; `H V ];
    [ `T "SELECT a FROM t WHERE a > "; `H V; `T " AND b <> "; `H V; `T " LIMIT "; `H N ];
    [ `T "SELECT a, b FROM t WHERE b = "; `H V; `T " OR a < "; `H V; `T " AT "; `H N ];
    [ `T "SELECT a FROM t WHERE b >= "; `H V; `T " LIMIT "; `H N; `T " AT "; `H N ];
    [ `T "SELECT b, COUNT(*) FROM t WHERE a >= "; `H V;
      `T " GROUP BY b HAVING COUNT(*) > "; `H N ];
    [ `T "SELECT b, COUNT(*) FROM t GROUP BY b" ];
    [ `T "SELECT a FROM t WHERE a = "; `H V; `T " UNION SELECT a FROM u WHERE a <= "; `H V;
      `T " ORDER BY a LIMIT "; `H N ];
    [ `T "SELECT t.a, u.a FROM t JOIN u ON t.a = u.a WHERE t.b = "; `H V ];
    [ `T "SELECT a FROM t WHERE a = "; `H V; `T " -- 'it''s' 7, -8\n" ];
    [ `T "SELECT SAMPLE("; `H K; `T ") FROM t WHERE a > "; `H V ];
    [ `T "SELECT APPROX_COUNT("; `H E; `T ") FROM t" ];
    [ `T "INSERT INTO t VALUES ("; `H V; `T ", "; `H V; `T ") TTL "; `H N ];
    [ `T "INSERT INTO t VALUES ("; `H V; `T ", "; `H V; `T ") EXPIRES "; `H N ];
    [ `T "INSERT INTO u VALUES ("; `H V; `T ")" ];
    [ `T "DELETE FROM t WHERE a = "; `H V ];
    [ `T "DELETE FROM t WHERE b < "; `H V; `T " OR a = "; `H V ];
    [ `T "TICK "; `H N ];
    [ `T "ADVANCE TO "; `H N ] ]

let gen_literal = function
  | V ->
    (* small domains, so one slot often keeps its value from one text
       of a shape to the next while another slot's changes *)
    Gen.(
      frequency
        [ (4, map string_of_int (int_range (-2) 3));
          (2, map (fun f -> Printf.sprintf "%.2f" (float_of_int f /. 2.)) (int_range (-2) 4));
          ( 2,
            map
              (fun cs ->
                "'"
                ^ String.concat "" (List.map (fun c -> if c = "'" then "''" else c) cs)
                ^ "'")
              (list_size (int_range 0 3) (oneofl [ "a"; "'"; "-"; "1"; " " ])) );
          (1, pure "NULL") ])
  | N -> Gen.map string_of_int (Gen.int_range 0 6)
  | K -> Gen.map string_of_int (Gen.int_range (-1) 4)
  | E -> Gen.oneofl [ "0.25"; "0.5"; "0.05"; "1.5"; "0" ]

let gen_text shape =
  Gen.map (String.concat "")
    (Gen.flatten_l
       (List.map
          (function
            | `T text -> Gen.pure text
            | `H hole -> gen_literal hole)
          shape))

(* SAMPLE draws its rows at random: answers are compared without it. *)
let answered_shapes = List.filter (fun shape -> List.hd shape <> `T "SELECT SAMPLE(") shapes

let parsed text =
  match Parser.parse_statement text with
  | s -> Ok s
  | exception Parser.Error (m, o) -> Error (m, o)

(* A text of a cached shape, bound into the shape's template, reads as
   the parser reads it — literals, NULLs, comments and refusals (a
   SAMPLE below 1, an APPROX_COUNT bound outside (0, 1)) alike — and
   the text that made the template still reads as it did. *)
let prop_template_binds_like_parse =
  Generators.qtest "statement cache: a bound template is the parse of its text" ~count:1000
    Gen.(oneofl shapes >>= fun shape -> pair (gen_text shape) (gen_text shape))
    (fun (first, second) ->
      let cache = Statement_cache.create ~capacity:4 () in
      let prepared text =
        match Statement_cache.prepare cache text with
        | p -> Ok p.Statement_cache.statement
        | exception Parser.Error (m, o) -> Error (m, o)
      in
      let a = prepared first in
      let b = prepared second in
      a = parsed first && b = parsed second && prepared first = parsed first)

(* Two sessions fed the same statements, one through the statement
   cache and one parsed and run uncached, answer alike — rows, texps,
   texp(e), listing order, messages and errors — while shapes repeat
   with other literals, grouped COUNTs get promoted, and floods of 65
   fresh shapes evict everything cached. *)
let prop_cached_answers_like_uncached =
  (* a run draws from a few shapes, so its texts rebind one plan in
     long chains *)
  let ops =
    Gen.(
      list_size (int_range 1 3) (oneofl answered_shapes) >>= fun few ->
      list_size (int_range 1 40)
        (frequency [ (12, map Option.some (oneofl few >>= gen_text)); (1, pure None) ]))
  in
  Generators.qtest "statement cache: a cached answer equals an uncached one" ~count:150 ops
    (fun ops ->
      let setup =
        [ "CREATE TABLE t (a, b)"; "CREATE TABLE u (a)"; "CREATE INDEX ON t (a)";
          "INSERT INTO t VALUES (1, 2) TTL 5"; "INSERT INTO t VALUES (2, 'a') TTL 9";
          "INSERT INTO t VALUES (-1, 2.5) TTL 20"; "INSERT INTO u VALUES (1)" ]
      in
      let cached = Interp.create () and uncached = Interp.create () in
      let run_uncached text =
        match Parser.parse_statement text with
        | s -> Interp.exec uncached s
        | exception Parser.Error (m, o) -> Error (Printf.sprintf "parse error at %d: %s" o m)
      in
      let same a b =
        match a, b with
        | Ok (Interp.Msg x), Ok (Interp.Msg y) -> x = y
        | ( Ok (Interp.Rows { columns; relation; listing; texp_e; recomputed }),
            Ok (Interp.Rows r) ) ->
          columns = r.columns && Relation.equal relation r.relation
          && Time.equal texp_e r.texp_e && recomputed = r.recomputed
          && List.equal
               (fun (t, e) (t', e') -> Tuple.equal t t' && Time.equal e e')
               (Lazy.force listing) (Lazy.force r.listing)
        | Error x, Error y -> x = y
        | _ -> false
      in
      let step text =
        let a = Interp.exec_sql cached text and b = run_uncached text in
        same a b || QCheck2.Test.fail_reportf "%S answers differently" text
      in
      let flood () =
        for k = 1 to 65 do
          let points = List.init k (fun i -> Printf.sprintf "a = %d" i) in
          ignore (Interp.exec_sql cached ("SELECT b FROM t WHERE " ^ String.concat " OR " points))
        done;
        true
      in
      List.for_all step setup
      && List.for_all (function Some text -> step text | None -> flood ()) ops)

let test_index_ddl_changes_explain () =
  let t = setup_indexed () in
  let explain () = msg (exec t "EXPLAIN SELECT uid FROM pol WHERE deg = 25") in
  Alcotest.(check bool) "seq scan before the index" true
    (string_contains (explain ()) "seq-scan");
  ignore (exec t "CREATE INDEX ON pol (deg)");
  Alcotest.(check bool) "index scan after CREATE INDEX" true
    (string_contains (explain ()) "index-scan");
  ignore (exec t "DROP INDEX ON pol (deg)");
  Alcotest.(check bool) "seq scan after DROP INDEX" true
    (string_contains (explain ()) "seq-scan")

let test_indexed_query_results_unchanged () =
  (* Indexes change access paths, never answers. *)
  let t = setup_indexed () in
  let run () =
    match exec t "SELECT uid FROM pol WHERE deg = 25" with
    | Interp.Rows { relation; _ } -> relation
    | Interp.Msg m -> Alcotest.failf "expected rows, got %S" m
  in
  let before = run () in
  ignore (exec t "CREATE INDEX ON pol (deg)");
  Alcotest.check relation_t "same rows through the index" before (run ())

let test_index_ddl_errors () =
  let t = setup_indexed () in
  expect_error t "CREATE INDEX ON nope (deg)";
  expect_error t "CREATE INDEX ON pol (nope)";
  expect_error t "DROP INDEX ON pol (nope)"

(* ---------- EXPLAIN ANALYZE: profiled execution ---------- *)

let test_explain_analyze_counts () =
  let t = setup_indexed () in
  let text = msg (exec t "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25") in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("reports: " ^ sub) true (string_contains text sub))
    [ "seq-scan pol";
      (* per-operator annotations: estimate, actual rows, timing *)
      "(est=";
      "rows=2";
      "dropped=0";
      "time=";
      (* the summary block *)
      "rows: 2";
      "texp(e) now:";
      "expired dropped: 0";
      "total:" ];
  (* the profiled run still goes through the plan cache *)
  let before = stats t in
  ignore (exec t "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25");
  Alcotest.(check int) "EXPLAIN ANALYZE hits the plan cache"
    (before.Interp.hits + 1) (stats t).Interp.hits

(* Under lazy removal, expired tuples stay physically present until a
   vacuum; the scan's dropped counter is exactly that churn. *)
let test_explain_analyze_dropped () =
  let t = Interp.create ~policy:Database.Lazy () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE pol (uid, deg)";
      "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
      "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
      "INSERT INTO pol VALUES (3, 35) EXPIRES 10";
      "ADVANCE TO 12" ];
  let text = msg (exec t "EXPLAIN ANALYZE SELECT uid FROM pol") in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("reports: " ^ sub) true (string_contains text sub))
    [ "dropped=2"; "rows=1"; "expired dropped: 2"; "rows: 1" ];
  (* answers are unchanged by profiling *)
  match exec t "SELECT uid FROM pol" with
  | Interp.Rows { relation; _ } ->
    Alcotest.(check int) "plain run agrees" 1 (Relation.cardinal relation)
  | Interp.Msg m -> Alcotest.failf "expected rows, got %S" m

(* One executor: no EXPLAIN or EXPLAIN ANALYZE line carries an
   execution-mode tag or a materialise node, whatever the operators. *)
let test_explain_untagged () =
  let t = setup_indexed () in
  ignore (exec t "CREATE TABLE el (uid, kind)");
  ignore (exec t "INSERT INTO el VALUES (1, 10) EXPIRES 20");
  List.iter
    (fun sql ->
      let text = msg (exec t sql) in
      List.iter
        (fun tag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: no %s" sql tag)
            false (string_contains text tag))
        [ "[tuple]"; "[batch]"; "materialise" ])
    [ "EXPLAIN SELECT uid FROM pol WHERE deg = 25";
      "EXPLAIN SELECT deg, COUNT(*) FROM pol GROUP BY deg";
      "EXPLAIN SELECT pol.uid, el.kind FROM pol JOIN el ON pol.uid = el.uid";
      "EXPLAIN SELECT uid FROM pol UNION SELECT uid FROM el";
      "EXPLAIN ANALYZE SELECT uid FROM pol EXCEPT SELECT uid FROM el";
      "EXPLAIN ANALYZE SELECT deg, COUNT(*) FROM pol GROUP BY deg" ]

(* An index scan skips the rows a DELETE or an overwrite left pending
   in the index; they never expired, so they are not dropped. *)
let test_explain_analyze_pending_removals () =
  let t = Interp.create () in
  ignore (exec t "CREATE TABLE pol (uid, deg)");
  for uid = 1 to 40 do
    ignore
      (exec t
         (Printf.sprintf "INSERT INTO pol VALUES (%d, %d) EXPIRES 1000" uid
            (if uid <= 4 then 25 else 30 + uid)))
  done;
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE INDEX ON pol (deg)";
      "DELETE FROM pol WHERE uid = 3";
      "INSERT INTO pol VALUES (4, 25) EXPIRES 2000" ];
  let text = msg (exec t "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25") in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("reports: " ^ sub) true (string_contains text sub))
    [ "index-scan"; "rows=3 dropped=0"; "expired dropped: 0"; "rows: 3" ]

(* Every time= and total: figure masked: the rest of EXPLAIN ANALYZE's
   text is deterministic. *)
let mask_times text =
  let n = String.length text and buf = Buffer.create (String.length text) in
  let rec go i =
    let at p = i + String.length p <= n && String.sub text i (String.length p) = p in
    let skip_number p =
      Buffer.add_string buf (p ^ "*");
      let j = ref (i + String.length p) in
      while !j < n && (match text.[!j] with '0' .. '9' | '.' -> true | _ -> false) do
        incr j
      done;
      go !j
    in
    if i >= n then ()
    else if at "time=" then skip_number "time="
    else if at "total: " then skip_number "total: "
    else (Buffer.add_char buf text.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents buf

(* One lazy-policy session through an index scan, a hash join, a GROUP
   BY, an EXCEPT, an APPROX_COUNT, a projected and a bare scan and an
   index range: the texts match the ones the executor's earlier,
   separately kept per-operator profile printed. *)
let test_explain_analyze_golden () =
  let t = Interp.create ~policy:Database.Lazy () in
  ignore (exec t "CREATE TABLE pol (uid, deg)");
  for uid = 1 to 40 do
    ignore
      (exec t
         (Printf.sprintf "INSERT INTO pol VALUES (%d, %d) EXPIRES %d" uid
            (10 + (uid mod 8 * 5))
            (if uid mod 3 = 0 then 5 else 50 + uid)))
  done;
  ignore (exec t "CREATE INDEX ON pol (deg)");
  ignore (exec t "CREATE TABLE el (uid, kind)");
  for uid = 1 to 12 do
    ignore
      (exec t
         (Printf.sprintf "INSERT INTO el VALUES (%d, %d) EXPIRES %d" uid
            (uid * 10)
            (if uid mod 4 = 0 then 6 else 30)))
  done;
  ignore (exec t "ADVANCE TO 8");
  List.iter
    (fun (query, expected) ->
      Alcotest.(check string) query (String.concat "\n" expected)
        (mask_times (msg (exec t ("EXPLAIN ANALYZE " ^ query)))))
    [ ( "SELECT uid FROM pol WHERE deg = 25",
        [ "project [1]  (est=5 rows=3 batches=1 time=*ms)";
          "  index-scan pol via index-eq(#2 = 25) [#2 = 25]  (est=5 rows=3 \
           dropped=2 visited=3 batches=1 cut_skipped=0 time=*ms)";
          "rows: 3"; "texp(e) now: inf"; "expired dropped: 2"; "total: *ms" ] );
      ( "SELECT pol.uid, el.kind FROM pol JOIN el ON pol.uid = el.uid",
        [ "project [1,4]  (est=27 rows=6 batches=1 time=*ms)";
          "  hash-join [#1 = right #1] verify [#1 = #3]  (est=27 rows=6 \
           build=9 batches=1 time=*ms)";
          "    seq-scan pol  (est=27 rows=27 dropped=13 batches=1 \
           cut_skipped=13 time=*ms)";
          "    seq-scan el  (est=9 rows=9 dropped=3 batches=1 cut_skipped=3 \
           time=*ms)";
          "rows: 6"; "texp(e) now: inf"; "expired dropped: 16"; "total: *ms" ] );
      ( "SELECT deg, COUNT(*) FROM pol GROUP BY deg",
        [ "aggregate [group {2}, count, partials -> (2,3)]  (est=27 rows=8 \
           time=*ms)";
          "  seq-scan pol  (est=27 rows=27 dropped=13 batches=1 \
           cut_skipped=13 time=*ms)";
          "rows: 8"; "texp(e) now: 51"; "expired dropped: 13"; "total: *ms" ] );
      ( "SELECT uid FROM pol EXCEPT SELECT uid FROM el",
        [ "merge-diff  (est=27 rows=21 time=*ms)";
          "  project [1]  (est=27 rows=27 batches=1 time=*ms)";
          "    seq-scan pol  (est=27 rows=27 dropped=13 batches=1 \
           cut_skipped=13 time=*ms)";
          "  project [1]  (est=9 rows=9 batches=1 time=*ms)";
          "    seq-scan el  (est=9 rows=9 dropped=3 batches=1 cut_skipped=3 \
           time=*ms)";
          "rows: 21"; "texp(e) now: 30"; "expired dropped: 16"; "total: *ms" ] );
      ( "SELECT APPROX_COUNT(0.1) FROM pol",
        [ "sketch-count [eps=0.1]  (est=1 rows=1 sketch=3080B time=*ms)";
          "  seq-scan pol  (est=27 rows=27 dropped=13 batches=1 \
           cut_skipped=13 time=*ms)";
          "rows: 1"; "texp(e) now: 51"; "expired dropped: 13"; "total: *ms" ] );
      ( "SELECT uid FROM pol",
        [ "project [1]  (est=27 rows=27 batches=1 time=*ms)";
          "  seq-scan pol  (est=27 rows=27 dropped=13 batches=1 \
           cut_skipped=13 time=*ms)";
          "rows: 27"; "texp(e) now: inf"; "expired dropped: 13"; "total: *ms" ] );
      ( "SELECT * FROM pol",
        [ "seq-scan pol  (est=27 rows=27 dropped=13 time=*ms)";
          "rows: 27"; "texp(e) now: inf"; "expired dropped: 13"; "total: *ms" ] );
      ( "SELECT uid FROM pol WHERE deg > 20 AND deg < 30",
        [ "project [1]  (est=5 rows=3 batches=1 time=*ms)";
          "  index-scan pol via index-range(#2: (20)..(30)) [(#2 > 20 and #2 \
           < 30)]  (est=5 rows=3 dropped=2 visited=3 batches=1 cut_skipped=0 \
           time=*ms)";
          "rows: 3"; "texp(e) now: inf"; "expired dropped: 2"; "total: *ms" ] ) ]

let test_explain_analyze_cut_skipped () =
  let t = Interp.create ~policy:Database.Lazy () in
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "CREATE TABLE pol (uid, deg)";
      "INSERT INTO pol VALUES (1, 25) EXPIRES 10";
      "INSERT INTO pol VALUES (2, 25) EXPIRES 15";
      "INSERT INTO pol VALUES (3, 35) EXPIRES 10";
      "ADVANCE TO 12" ];
  let text = msg (exec t "EXPLAIN ANALYZE SELECT uid FROM pol") in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("reports: " ^ sub) true (string_contains text sub))
    [ "batches="; "cut_skipped=2"; "rows=1" ]

let test_explain_analyze_index_and_join () =
  let t = setup_indexed () in
  ignore (exec t "CREATE INDEX ON pol (deg)");
  let text = msg (exec t "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg = 25") in
  Alcotest.(check bool) "profiles the index scan" true
    (string_contains text "index-scan");
  Alcotest.(check bool) "index scans report visited" true
    (string_contains text "visited=");
  (* enough rows that the cost model picks the hash join
     (2(l+r) < l*r needs 3x7 here) *)
  ignore (exec t "CREATE TABLE el (uid, kind)");
  for uid = 1 to 7 do
    ignore
      (exec t (Printf.sprintf "INSERT INTO el VALUES (%d, %d) EXPIRES 20" uid (uid * 10)))
  done;
  let join =
    msg
      (exec t
         "EXPLAIN ANALYZE SELECT pol.uid, el.kind FROM pol JOIN el \
          ON pol.uid = el.uid")
  in
  Alcotest.(check bool) "hash join profiled" true
    (string_contains join "hash-join");
  Alcotest.(check bool) "build side size reported" true
    (string_contains join "build=7")

(* ---------- the LRU itself ---------- *)

let test_lru_evicts_stalest () =
  let cache = Lru.create ~capacity:2 () in
  Lru.set cache "a" 1;
  Lru.set cache "b" 2;
  Alcotest.(check (option int)) "touch a" (Some 1) (Lru.find cache "a");
  Lru.set cache "c" 3;
  Alcotest.(check int) "still at capacity" 2 (Lru.length cache);
  Alcotest.(check (option int)) "b was stalest" None (Lru.find cache "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Lru.find cache "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find cache "c");
  Lru.set cache "c" 4;
  Alcotest.(check (option int)) "replace in place" (Some 4)
    (Lru.find cache "c");
  Alcotest.(check int) "replace keeps size" 2 (Lru.length cache)

(* The LRU against a list model, most recent first: [find] moves a hit
   to the front, [set] updates in place (to the front) or inserts at the
   front after dropping the last entry when full, [remove] drops without
   telling [on_evict].  Every find answers alike, and the eviction
   callback hears the same keys in the same order. *)
type lru_op = Find of int | Set of int * int | Remove of int

let prop_lru_model =
  let op =
    QCheck2.Gen.(
      let key = int_range 0 9 in
      frequency
        [ (3, map (fun k -> Find k) key);
          (4, map2 (fun k v -> Set (k, v)) key (int_range 0 99));
          (1, map (fun k -> Remove k) key) ])
  in
  let gen = QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 0 60) op)) in
  Generators.qtest "LRU find/set/remove and eviction order = list model" gen
    (fun (capacity, ops) ->
      let evicted = ref [] in
      let cache = Lru.create ~on_evict:(fun k -> evicted := k :: !evicted) ~capacity () in
      let model = ref [] and model_evicted = ref [] in
      let front k v = (k, v) :: List.remove_assoc k !model in
      List.for_all
        (fun op ->
          (match op with
           | Find k ->
             let got = Lru.find cache k and want = List.assoc_opt k !model in
             Option.iter (fun v -> model := front k v) want;
             got = want
           | Set (k, v) ->
             Lru.set cache k v;
             if (not (List.mem_assoc k !model)) && List.length !model >= capacity then begin
               let victim, _ = List.nth !model (List.length !model - 1) in
               model_evicted := victim :: !model_evicted;
               model := List.remove_assoc victim !model
             end;
             model := front k v;
             true
           | Remove k ->
             Lru.remove cache k;
             model := List.remove_assoc k !model;
             true)
          && Lru.length cache = List.length !model
          && !evicted = !model_evicted)
        ops)

let suite =
  [ prop_template_binds_like_parse;
    prop_cached_answers_like_uncached;
    Generators.qtest "physical plan ≡ naive eval (rows and texps)"
      ~count:300 gen_case physical_equals_naive;
    Generators.qtest
      "a traced run's op spans mirror the plan; EXPLAIN ANALYZE counts its rows"
      ~count:300 gen_case spans_mirror_plan;
    Generators.qtest "executor ≡ naive eval across cut boundaries"
      ~count:300 gen_cut_case physical_equals_naive;
    Generators.qtest
      "AT n through the executor ≡ naive eval over snapshots at n"
      ~count:300 gen_at_case at_equals_naive;
    Generators.to_alcotest
      (QCheck2.Test.make
         ~name:"AT n GROUP BY partial ≡ of_relation of the naive child at n"
         ~count:40
         ~print:(fun (c, ahead) ->
           Printf.sprintf "%s, ahead %d" (print_grouped_case c) ahead)
         (Gen.pair gen_grouped_case (Gen.int_range 0 30))
         grouped_at_law);
    Generators.to_alcotest
      (QCheck2.Test.make
         ~name:"multi-chunk GROUP BY: batched ≡ naive, fold ≡ of_relation"
         ~count:60 ~print:print_grouped_case gen_grouped_case grouped_law);
    Generators.to_alcotest
      (QCheck2.Test.make
         ~name:"unordered rows fold as texp-sorted ones; index-range GROUP BY ≡ naive"
         ~count:100 ~print:print_unordered_case gen_unordered_case
         unordered_law);
    Generators.to_alcotest
      (QCheck2.Test.make
         ~name:"merged fragment partials ≡ the whole's partial; merge commutes"
         ~count:300 ~print:print_merge_case gen_merge_case merge_law);
    Generators.to_alcotest
      (QCheck2.Test.make
         ~name:"observe_batch ≡ of_relation ≡ naive aggregate over random batches"
         ~count:500 ~print:print_kernel_case gen_kernel_case kernel_law);
    Generators.qtest "Partial_agg.Key ≡ Value.hash/equal" ~count:1000
      gen_key_pair key_agrees;
    Alcotest.test_case "a group carries the last compare-equal key seen" `Quick
      test_last_seen_key;
    Alcotest.test_case "COUNT fold allocates nothing per row" `Quick
      test_count_fold_allocates_nothing;
    Alcotest.test_case "cut boundary on duplicate texps" `Quick
      test_cut_duplicate_texp_boundary;
    Alcotest.test_case "multi-chunk live cut" `Quick test_multi_chunk_cut;
    Alcotest.test_case "scan estimates scale by live rows" `Quick
      test_estimate_scales_by_live_rows;
    Alcotest.test_case "EXPLAIN: no per-operator mode tags" `Quick
      test_explain_untagged;
    Alcotest.test_case "EXPLAIN ANALYZE: chunk-cut savings" `Quick
      test_explain_analyze_cut_skipped;
    Generators.qtest "hash join ≡ nested loop" ~count:300 gen_join_inputs
      hash_equals_nested;
    Generators.qtest "merge union ≡ Ops.union" gen_set_inputs merge_union_law;
    Generators.qtest "merge intersect ≡ Ops.intersect" gen_set_inputs
      merge_intersect_law;
    Generators.qtest "merge diff ≡ Ops.diff" gen_set_inputs merge_diff_law;
    Alcotest.test_case "EXCEPT: texp(e) is the first reappearance" `Quick
      test_diff_texp_is_first_reappearance;
    Alcotest.test_case "planner refuses aggregates outside the GROUP BY shape"
      `Quick test_planner_refuses_unlowered_aggregates;
    Alcotest.test_case "every sqlx GROUP BY plans the fused aggregate" `Quick
      test_sql_group_by_plans_fused;
    Alcotest.test_case "batch folds count each set member once" `Quick
      test_folds_count_set_members;
    Alcotest.test_case "hash join: Int/Float key coercion" `Quick
      test_hash_join_numeric_coercion;
    Alcotest.test_case "hash join: Null keys join nothing" `Quick
      test_hash_join_null_keys;
    Alcotest.test_case "hash join: NaN keys fall back, not vanish" `Quick
      test_hash_join_nan_keys;
    Alcotest.test_case "hash join: multi-key + residual predicate" `Quick
      test_hash_join_multi_key_residual;
    Alcotest.test_case "hash join: empty sides" `Quick
      test_hash_join_empty_sides;
    Alcotest.test_case "range walk visits only the answer" `Quick
      test_range_visits_only_the_answer;
    Alcotest.test_case "plan cache: repeat statements hit" `Quick
      test_plan_cache_hits;
    Alcotest.test_case "plan cache: DDL invalidates" `Quick
      test_plan_cache_invalidated_by_ddl;
    Alcotest.test_case "EXPLAIN tracks index DDL" `Quick
      test_index_ddl_changes_explain;
    Alcotest.test_case "EXPLAIN ANALYZE: per-operator counts" `Quick
      test_explain_analyze_counts;
    Alcotest.test_case "EXPLAIN ANALYZE: expired-dropped churn" `Quick
      test_explain_analyze_dropped;
    Alcotest.test_case "EXPLAIN ANALYZE: index scans and joins" `Quick
      test_explain_analyze_index_and_join;
    Alcotest.test_case "EXPLAIN ANALYZE: pending removals are not dropped"
      `Quick test_explain_analyze_pending_removals;
    Alcotest.test_case "EXPLAIN ANALYZE: golden texts, times masked" `Quick
      test_explain_analyze_golden;
    Alcotest.test_case "index DDL never changes answers" `Quick
      test_indexed_query_results_unchanged;
    Alcotest.test_case "index DDL errors" `Quick test_index_ddl_errors;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_evicts_stalest;
    prop_lru_model ]
