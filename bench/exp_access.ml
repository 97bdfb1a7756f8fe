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
   size and narrows as selectivity drops.  A write costs O(log n) plus
   a constant number of row copies per run, amortised, so its cost per
   write stays near flat from 10^4 to 10^5 rows. *)

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

(* Writes, µs per write: inserts into an unindexed table, and
   overwrites (a new texp) and deletes of random rows of a table with
   indexes on both columns; TTLs uniform over 1 000 ticks.  As many
   overwrites as rows, and deletes of half of them, so the runs'
   pending changes fold several times within each timing. *)
let write_costs ~rows =
  let rng = Bench_util.rng 31 in
  let tuples = Array.init rows (fun i -> Tuple.ints [ i; Random.State.int rng 10_000 ]) in
  let texps () = Array.init rows (fun _ -> Time.of_int (1 + Random.State.int rng 1_000)) in
  let load tbl = Array.iter2 (fun tu texp -> Table.insert tbl tu ~texp) tuples (texps ()) in
  let fresh ~indexes =
    let tbl = Table.create ~name:"w" ~columns:[ "sensor"; "value" ] () in
    List.iter (fun column -> Table.create_index tbl ~column) indexes;
    tbl
  in
  let per_write n f =
    let (), seconds = Bench_util.time_it f in
    seconds *. 1e6 /. float_of_int n
  in
  let insert =
    let tbl = fresh ~indexes:[] and texps = texps () in
    per_write rows (fun () -> Array.iter2 (fun tu texp -> Table.insert tbl tu ~texp) tuples texps)
  in
  let overwrite =
    let tbl = fresh ~indexes:[ 1; 2 ] in
    load tbl;
    let picks = Array.init rows (fun _ -> tuples.(Random.State.int rng rows)) in
    let texps = texps () in
    per_write rows (fun () -> Array.iter2 (fun tu texp -> Table.insert tbl tu ~texp) picks texps)
  in
  let delete =
    let tbl = fresh ~indexes:[ 1; 2 ] in
    load tbl;
    let order = Array.copy tuples in
    for i = rows - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    per_write (rows / 2) (fun () ->
        for i = 0 to (rows / 2) - 1 do
          ignore (Table.delete tbl order.(i) : bool)
        done)
  in
  [ insert; overwrite; delete ]

(* A load, ms: [rows] fresh rows into a table with indexes on both
   columns, TTLs uniform over 1 000 ticks; then the same load followed
   by one point read through each index, the first reads of the pending
   adds the load leaves; and the minor-heap words one load allocates
   per row. *)
let load_costs ~rows =
  let rng = Bench_util.rng 53 in
  let tuples = Array.init rows (fun i -> Tuple.ints [ i; Random.State.int rng 10_000 ]) in
  let texps = Array.init rows (fun _ -> Time.of_int (1 + Random.State.int rng 1_000)) in
  let load () =
    let tbl = Table.create ~name:"l" ~columns:[ "sensor"; "value" ] () in
    List.iter (fun column -> Table.create_index tbl ~column) [ 1; 2 ];
    Array.iter2 (fun tu texp -> Table.insert tbl tu ~texp) tuples texps;
    tbl
  in
  let point tbl column =
    let v = Texp_run.Inclusive (Tuple.attr tuples.(rows / 2) column) and found = ref 0 in
    Texp_run.scan_range (Table.index tbl ~column) ~tau:Time.zero ~lo:v ~hi:v ~visited:(ref 0)
      ~dropped:(ref 0) (fun c sel ->
        found := !found + match sel with None -> Texp_run.chunk_len c | Some s -> Array.length s);
    if !found = 0 then failwith "exp-access: a point read missed its row"
  in
  (* Each timing starts from a compacted heap, so the garbage of earlier
     timings is not collected inside it, and covers 10^5 rows loaded (10
     loads of 10^4): ms per load. *)
  let reps = max 1 (100_000 / rows) in
  let ms f =
    Gc.compact ();
    let (), seconds = Bench_util.time_it (fun () -> for _ = 1 to reps do f () done) in
    1e3 *. seconds /. float_of_int reps
  in
  let load_ms = ms (fun () -> ignore (load () : Table.t)) in
  let read_ms = ms (fun () -> let tbl = load () in point tbl 1; point tbl 2) in
  let words = Gc.minor_words () in
  ignore (load () : Table.t);
  [ load_ms; read_ms; (Gc.minor_words () -. words) /. float_of_int rows ]

(* Each row's median of 3 runs (min-max), the medians recorded as
   [access_<name>_n<rows>] and returned by name and rows. *)
let median_sweep ~title ~headers ~names f =
  Bench_util.subsection (title ^ ": median of 3 runs (min-max)");
  let medians = ref [] in
  let cell rows name runs =
    let sorted = List.sort Float.compare runs in
    let median = List.nth sorted 1 in
    Bench_util.metric (Printf.sprintf "access_%s_n%d" name rows) median;
    medians := ((name, rows), median) :: !medians;
    Printf.sprintf "%s (%s-%s)" (Bench_util.f1 median) (Bench_util.f1 (List.hd sorted))
      (Bench_util.f1 (List.nth sorted 2))
  in
  Bench_util.table ~headers:("rows" :: headers)
    (List.map
       (fun rows ->
         let runs = List.init 3 (fun _ -> f ~rows) in
         string_of_int rows
         :: List.mapi (fun k name -> cell rows name (List.map (fun r -> List.nth r k) runs)) names)
       [ 10_000; 100_000 ]);
  !medians

(* How a write and a load scale: the 10^5 median over the 10^4 one,
   both taken in this process, recorded as [access_<row>_ratio].  An
   O(log n) write reads near 1; a load, which writes ten times the rows,
   near 10. *)
let ratio_rows medians =
  Bench_util.subsection "10^5 median / 10^4 median";
  Bench_util.table ~headers:[ "row"; "ratio" ]
    (List.map
       (fun (row, name) ->
         let at rows = List.assoc (name, rows) medians in
         let ratio = at 100_000 /. at 10_000 in
         Bench_util.metric (Printf.sprintf "access_%s_ratio" row) ratio;
         [ row; Bench_util.f2 ratio ])
       [ "overwrite", "overwrite_us"; "delete", "delete_us"; "load", "load_ms" ])

let write_sweep () =
  let writes =
    median_sweep ~title:"table writes, µs per write"
      ~headers:[ "insert, no index"; "overwrite, 2 indexes"; "delete, 2 indexes" ]
      ~names:[ "insert_us"; "overwrite_us"; "delete_us" ] write_costs
  in
  let loads =
    median_sweep ~title:"loads into 2 indexes, ms and minor words per row"
      ~headers:[ "load"; "load + a point read per index"; "words per row" ]
      ~names:[ "load_ms"; "load_read_ms"; "load_words_per_row" ] load_costs
  in
  ratio_rows (writes @ loads)

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
  write_sweep ();
  print_endline
    "\nShape check: selective queries gain an order of magnitude or more\n\
     through the index; wide ranges converge towards scan cost since the\n\
     answer itself dominates."

let run_all () = sweep ()
