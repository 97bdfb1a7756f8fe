(* Experiment exp-vexec: the executor over expiration-ordered batches.

   Every measurement compares the planned executor against the naive
   evaluator (Eval over live table snapshots, the paper-faithful oracle)
   on the same database — results are identical (the qcheck executor ≡
   naive law), only the evaluation strategy differs:

   - the live cut: counting a churny lazily-vacuumed table's live rows
     is a chunk-level texp cut plus columnar accumulation into the
     fused aggregate, not a per-row liveness filter, a snapshot build
     and an exact aggregate over it.  The win grows with the expired
     fraction because wholly expired chunks are skipped without
     touching a row;
   - a selective filter scan: the compiled predicate kernel over flat
     column arrays vs Predicate.eval per snapshot tuple;
   - the hash-join probe: build and probe over column batches vs the
     naive product-then-select (run up to 10^5 rows: the product of
     10^6 rows with the dimension is 10^7 tuples);
   - a grouped aggregate: GROUP BY over 10^3 groups whose live rows
     spread over 100 expiration times, the cut batches folded straight
     into the hashed expiration-slice accumulator vs the naive
     aggregate over a snapshot;
   - a global COUNT whose predicate an index could serve ([id >= 1] on
     scrambled ids whose live rows expire at distinct times): the index
     range holds every row, expired ones included, so [Access] takes the
     cut scan, which reads only the live ones;
   - a grouped COUNT, session-churn's GROUP BY shape: COUNT per key over
     10^3 groups;
   - the same GROUP BY COUNT read through the interpreter once promoted
     to a standing entry, against the fused fold of the same statement
     text under [AT] the clock (which is never promoted): microseconds
     per read at 10^4 and 10^5 rows, 10^3 groups either way.

   Every row reports the executor's time per live row ([_ns_per_row])
   beside both totals.

   Every row runs both evaluators once before timing them and fails
   hard when the two answers (rows, per-row texps, texp(e)) differ, so
   the CI smoke guards the kernels as well as timing them.

   Scale: 1e5 and 1e6 rows (the join row 1e5 only) x
   expired fractions {0, 0.5, 0.99}.
   EXPIREL_VEXEC_ROWS caps the row counts so CI can smoke-test the
   same harness in seconds.  Expected shape: live-cut speedup >= 5x at
   1e6 rows / 0.5 expired, far larger at 0.99; the grouped COUNT at
   most 50 ns per live row at 1e5 rows with nothing expired. *)

open Expirel_core
open Expirel_storage
open Expirel_exec

let capped defaults =
  match Sys.getenv_opt "EXPIREL_VEXEC_ROWS" with
  | None -> defaults
  | Some s ->
    (match int_of_string_opt s with
     | None -> defaults
     | Some cap when cap <= 0 -> defaults
     | Some cap ->
       (match List.filter (fun n -> n <= cap) defaults with
        | [] -> [ cap ]
        | kept -> kept))

let sizes = capped [ 100_000; 1_000_000 ]

let fractions = [ 0.0; 0.5; 0.99 ]

(* A churny feed: [fraction] of the [n] rows died at t=10, the rest
   live to 1e6 — or, with [spread] > 1, to one of [spread] successive
   times, so a live group's members expire at several times (with
   [spread] >= [n], every live row at its own).  The times rise with the row number, so every insert appends to the
   texp-ordered run and the load stays linear.  The clock stands at
   50 and nothing is vacuumed, so the expired rows are physically
   present — exactly the shape the chunk cut exists for. *)
let load_feed ?(spread = 1) ?(scramble = false) ~n ~fraction () =
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) =
    Database.create_table db ~name:"feed" ~columns:[ "id"; "v" ]
  in
  let expired = int_of_float (fraction *. float_of_int n) in
  for i = 1 to n do
    (* [scramble] permutes the ids (7919 is a prime dividing no row
       count here), so id order is no longer texp order. *)
    let id = if scramble then ((i - 1) * 7919 mod n) + 1 else i in
    Database.insert db "feed"
      (Tuple.ints [ id; i mod 1000 ])
      ~texp:
        (Time.of_int
           (if i <= expired then 10 else 1_000_000 + ((i - 1) * spread / n)))
  done;
  Database.advance_to db (Time.of_int 50);
  db

(* Time reps of an evaluation, after one warm run that lays out the
   run's insert buffer as a chunk (the naive path rebuilds its live
   snapshots on every run: rows have expired) — steady-state latency is
   the quantity of interest.  Returns the warm run's answer too. *)
let time_query ~reps run =
  let answer = run () in
  let (), s =
    Bench_util.time_it (fun () ->
        for _ = 1 to reps do
          ignore (run () : Eval.result)
        done)
  in
  (s /. float_of_int reps, answer)

(* The live row count of the bare feed, written the way SQL lowers it so the
   planner fuses it into a Grouped_aggregate (the aggregate sits at
   child_arity + 1 = 3): the batched child feeds Partial_agg slices
   straight from the cut batches. *)
let count_expr =
  Algebra.project [ 3 ] (Algebra.aggregate [] Aggregate.Count (Algebra.base "feed"))

(* One key in a thousand: output stays small, so the measurement is the
   scan + predicate work, not result construction. *)
let filter_expr =
  Algebra.select
    (Predicate.Cmp (Predicate.Eq, Predicate.Col 2, Predicate.Const (Value.int 123)))
    (Algebra.base "feed")

(* SELECT v, SUM(id) FROM feed GROUP BY v: 10^3 groups, fused into a
   Grouped_aggregate like [count_expr]. *)
let grouped_expr =
  Algebra.project [ 2; 3 ]
    (Algebra.aggregate [ 2 ] (Aggregate.Sum 1) (Algebra.base "feed"))

(* SELECT v, COUNT( * ) FROM feed GROUP BY v: the same 10^3 groups,
   counted — each row one probe of the group table and a counter
   update. *)
let grouped_count_expr =
  Algebra.project [ 2; 3 ]
    (Algebra.aggregate [ 2 ] Aggregate.Count (Algebra.base "feed"))

(* SELECT COUNT( * ) FROM feed WHERE id >= 1 with an index on id, on a
   feed whose ids are scrambled and whose live rows all expire at
   distinct times.  The index range holds every physical row and the cut
   scan reads only the live ones, so [Access] takes the cut scan at
   every expired fraction: an index read of the range would examine the
   expired rows too. *)
let unordered_expr =
  Algebra.project [ 3 ]
    (Algebra.aggregate [] Aggregate.Count
       (Algebra.select
          (Predicate.Cmp
             (Predicate.Ge, Predicate.Col 1, Predicate.Const (Value.int 1)))
          (Algebra.base "feed")))

let index_id db =
  Table.create_index (Database.table_exn db "feed") ~column:1;
  Database.bump_generation db

(* The join probe: a small all-live dimension (10 keys) against the
   churny feed, equi-joined on feed.v — 1% of live feed rows match, so
   probe-side work dominates.  The batched plan cuts the probe side's
   expired rows wholesale and probes from column batches. *)
let join_expr =
  Algebra.join
    (Predicate.Cmp (Predicate.Eq, Predicate.Col 2, Predicate.Col 3))
    (Algebra.base "feed") (Algebra.base "dim")

let add_dim db =
  let (_ : Table.t) =
    Database.create_table db ~name:"dim" ~columns:[ "k"; "w" ]
  in
  for k = 0 to 9 do
    Database.insert db "dim" (Tuple.ints [ k; k * 11 ])
      ~texp:(Time.of_int 1_000_000)
  done

let tag name ~n ~fraction =
  Printf.sprintf "%s_n%d_f%d" name n (int_of_float (fraction *. 100.))

let sweep ~name ~title ~reps ?(sizes = sizes) ?spread ?scramble
    ?(prepare = ignore) expr =
  Bench_util.subsection title;
  let rows_out = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun fraction ->
          let db = load_feed ?spread ?scramble ~n ~fraction () in
          prepare db;
          let compiled = Planner.plan ~db expr in
          let reps = if n >= 1_000_000 then max 1 (reps / 4) else reps in
          let naive_s, naive_answer =
            time_query ~reps (fun () -> Database.query db expr)
          in
          let batch_s, batch_answer =
            time_query ~reps (fun () -> Executor.run ~db compiled)
          in
          if
            not
              (Relation.equal naive_answer.Eval.relation
                 batch_answer.Eval.relation
              && Time.equal naive_answer.Eval.texp batch_answer.Eval.texp)
          then
            failwith
              (Printf.sprintf "%s: executor and naive answers differ"
                 (tag name ~n ~fraction));
          let speedup = naive_s /. Float.max 1e-9 batch_s in
          Bench_util.metric (tag name ~n ~fraction ^ "_naive_us")
            (naive_s *. 1e6);
          Bench_util.metric (tag name ~n ~fraction ^ "_batch_us")
            (batch_s *. 1e6);
          Bench_util.metric (tag name ~n ~fraction ^ "_speedup") speedup;
          let live = n - int_of_float (fraction *. float_of_int n) in
          let ns_per_row = batch_s *. 1e9 /. float_of_int (max 1 live) in
          Bench_util.metric (tag name ~n ~fraction ^ "_ns_per_row") ns_per_row;
          rows_out :=
            [ string_of_int n;
              Printf.sprintf "%.0f%%" (fraction *. 100.);
              Bench_util.f1 (naive_s *. 1e6);
              Bench_util.f1 (batch_s *. 1e6);
              Bench_util.f1 speedup;
              Bench_util.f1 ns_per_row ]
            :: !rows_out)
        fractions)
    sizes;
  Bench_util.table
    ~headers:
      [ "rows"; "expired"; "naive us"; "batch us"; "speedup"; "ns/live row" ]
    (List.rev !rows_out)

(* The observability counters must see the cut working: re-run the
   headline configuration and record how many expired rows the chunk
   cut skipped without touching. *)
let cut_accounting () =
  Bench_util.subsection "chunk-cut accounting (Vec_stats)";
  let n = List.fold_left max 0 sizes in
  let db = load_feed ~n ~fraction:0.5 () in
  let before = (Expirel_obs.Vec_stats.snapshot ()).Expirel_obs.Vec_stats.s_cut_skipped in
  ignore (Executor.run ~db (Planner.plan ~db count_expr) : Eval.result);
  let after = (Expirel_obs.Vec_stats.snapshot ()).Expirel_obs.Vec_stats.s_cut_skipped in
  let skipped = after - before in
  Bench_util.param_int "cut_accounting_rows" n;
  Bench_util.metric_int "cut_skipped_at_f50" skipped;
  Printf.printf "cut skipped %d of %d expired rows wholesale\n" skipped (n / 2);
  if skipped < n / 2 then
    failwith "chunk cut skipped fewer rows than the expired half"

(* The standing_count row: both reads run the whole statement through
   [Interp.exec_sql] (parse cache, plan cache, ordering), so they differ
   only in where the answer comes from, and both must answer alike. *)
let standing_count () =
  Bench_util.subsection "standing_count: promoted GROUP BY COUNT read vs fused fold";
  let sql = "SELECT v, COUNT(*) FROM feed GROUP BY v" in
  let rows_out =
    List.map
      (fun n ->
        let t = Expirel_sqlx.Interp.create () in
        let db = Expirel_sqlx.Interp.database t in
        let (_ : Table.t) =
          Database.create_table db ~name:"feed" ~columns:[ "id"; "v" ]
        in
        for i = 1 to n do
          Database.insert db "feed"
            (Tuple.ints [ i; i mod 1000 ])
            ~texp:(Time.of_int (1_000_000 + ((i - 1) * 100 / n)))
        done;
        let read sql () =
          match Expirel_sqlx.Interp.exec_sql t sql with
          | Ok (Expirel_sqlx.Interp.Rows { relation; texp_e; _ }) ->
            { Eval.relation; texp = texp_e }
          | Ok _ | Error _ -> failwith ("standing_count: " ^ sql)
        in
        ignore (read sql () : Eval.result);
        let reps = 200 in
        let fold_s, folded = time_query ~reps (read (sql ^ " AT 0")) in
        let standing_s, standing = time_query ~reps (read sql) in
        if
          not
            (Relation.equal folded.Eval.relation standing.Eval.relation
            && Time.equal folded.Eval.texp standing.Eval.texp)
        then failwith (Printf.sprintf "standing_count_n%d: answers differ" n);
        let name = Printf.sprintf "standing_count_n%d" n in
        Bench_util.metric (name ^ "_fold_us") (fold_s *. 1e6);
        Bench_util.metric (name ^ "_standing_us") (standing_s *. 1e6);
        Bench_util.metric (name ^ "_speedup") (fold_s /. Float.max 1e-9 standing_s);
        [ string_of_int n;
          Bench_util.f1 (fold_s *. 1e6);
          Bench_util.f1 (standing_s *. 1e6);
          Bench_util.f1 (fold_s /. Float.max 1e-9 standing_s) ])
      (capped [ 10_000; 100_000 ])
  in
  Bench_util.table ~headers:[ "rows"; "fold us"; "standing us"; "speedup" ] rows_out

let run_all () =
  Bench_util.section
    "Experiment exp-vexec: vectorized execution over expiration-ordered \
     batches";
  Bench_util.param "sizes"
    (String.concat "," (List.map string_of_int sizes));
  let reps = 20 in
  let versus name = name ^ ": executor vs naive eval" in
  let small = List.filter (fun n -> n <= 100_000) sizes in
  sweep ~name:"live_cut" ~title:(versus "live_cut") ~reps count_expr;
  sweep ~name:"filter" ~title:(versus "filter") ~reps filter_expr;
  sweep ~name:"join" ~title:(versus "hash-join probe over a churny feed")
    ~reps:4 ~sizes:small ~prepare:add_dim join_expr;
  sweep ~name:"grouped" ~title:(versus "GROUP BY over 10^3 groups") ~reps
    ~spread:100 grouped_expr;
  sweep ~name:"grouped_count"
    ~title:(versus "GROUP BY COUNT over 10^3 groups") ~reps ~spread:100
    grouped_count_expr;
  standing_count ();
  sweep ~name:"unordered"
    ~title:(versus "global COUNT an index range could serve, scrambled ids")
    ~reps:4 ~spread:1_000_000 ~scramble:true ~prepare:index_id
    unordered_expr;
  cut_accounting ()
