(* Experiment exp-access: secondary indexes over expiring tables.
   An index is the table's rows in a second Texp_run keyed on the
   column, each row with its texp: a point probe is a binary search and
   a texp cut, a range seeks by binary search and skips expired rows by
   their stored texp, and neither consults the table.  Each query runs
   through the executor's scan leaf, which takes the access path
   [Access.plan] picks by estimate at the query's tau (printed per
   shape).

   Expected shape: point and narrow-range queries cost O(log n + answer)
   through the index vs O(n) for the scan; the gap widens with table
   size and narrows as selectivity drops. *)

open Expirel_core
open Expirel_storage
open Expirel_exec

let build ~rows =
  let db = Database.create () in
  let tbl =
    Database.create_table db ~name:"samples" ~columns:[ "sensor"; "value" ]
  in
  let rng = Bench_util.rng 97 in
  for i = 1 to rows do
    Table.insert tbl
      (Tuple.ints [ i; Random.State.int rng 10_000 ])
      ~texp:(Time.of_int (1 + Random.State.int rng 1_000))
  done;
  db

let queries =
  [ "point (#2 = c)", (fun c -> Predicate.eq_const 2 (Value.int c));
    "narrow range (width 50)",
    (fun c ->
      Predicate.And
        ( Predicate.Cmp (Predicate.Ge, Predicate.Col 2, Predicate.Const (Value.int c)),
          Predicate.Cmp
            (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int (c + 50))) ));
    "wide range (width 5000)",
    (fun c ->
      Predicate.Cmp
        (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int (c + 5_000))) ) ]

let tau = Time.of_int 500

let time_queries db make =
  let reps = 50 in
  let (), seconds =
    Bench_util.time_it (fun () ->
        for i = 0 to reps - 1 do
          let p = make (i * 97 mod 5_000) in
          let plan = Planner.plan ~db Algebra.(select p (base "samples")) in
          ignore (Executor.run ~tau ~db plan : Eval.result)
        done)
  in
  seconds *. 1e6 /. float_of_int reps

let sweep () =
  Bench_util.section "Experiment exp-access: secondary indexes on expiring tables";
  List.iter
    (fun rows ->
      Bench_util.subsection (Printf.sprintf "%d rows, ~50%% live at query time" rows);
      let db = build ~rows in
      let tbl = Database.table_exn db "samples" in
      let table_rows =
        List.map
          (fun (name, make) ->
            let scan_us = time_queries db make in
            Table.create_index tbl ~column:2;
            let indexed_us = time_queries db make in
            let path = Access.plan tbl ~tau (make 100) in
            Table.drop_index tbl ~column:2;
            [ name;
              Format.asprintf "%a" Access.pp_plan path;
              Bench_util.f1 scan_us;
              Bench_util.f1 indexed_us;
              Bench_util.f1 (scan_us /. Float.max 0.1 indexed_us) ])
          queries
      in
      Bench_util.table
        ~headers:[ "query"; "plan"; "scan us"; "indexed us"; "speedup" ]
        table_rows)
    [ 10_000; 80_000 ];
  print_endline
    "\nShape check: selective queries gain an order of magnitude or more\n\
     through the index; wide ranges converge towards scan cost since the\n\
     answer itself dominates."

let run_all () = sweep ()
