(* Experiment exp-exec: the physical execution layer.

   Three claims, each measured:

   - a planned equi-join (hash build/probe over batches) beats the
     batch nested loop by orders of magnitude at 10k x 10k with
     selective keys — both pinned as plans and run through the
     executor, scans and materialisation included.  The naive
     [Ops.join] (materialise the product, then filter) is not even the
     baseline here, it is infeasible at this size;
   - live scans are O(1) when nothing has expired (cached min-texp on
     the relation, cached snapshot on the table);
   - the interpreter's statement + plan caches remove parsing, lowering
     and planning from the per-request path for repeated statements;
   - standing queries (constraints, watches) cost one plan run and one
     change-time walk per clock move or SHOW CONSTRAINTS: O(n log n +
     events), not a pass over the result per change point.

   Expected shape: hash join >= 10x over the nested loop (in practice
   thousands of x); repeated statements measurably cheaper than cold
   ones; an ADVANCE under one constraint within a small factor of an
   ADVANCE under one watch over the same rows. *)

open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_sqlx

let join_pred = Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Col 3)

(* Selective keys: every key appears once per side, so the join yields
   one output row per key — the answer is small, the pair space is not. *)
let build_side ~rows ~seed =
  let rng = Bench_util.rng seed in
  Relation.of_list ~arity:2
    (List.init rows (fun i ->
         Tuple.ints [ i; Random.State.int rng 1_000_000 ], Time.infinity))

(* A join plan pinned to one kernel, whatever the cost model picks. *)
let pinned expr physical = { Plan.logical = expr; physical }

let join_sweep () =
  let rows = 10_000 in
  Bench_util.subsection
    (Printf.sprintf "equi-join at %dx%d, one match per key" rows rows);
  Bench_util.param_int "join_rows_per_side" rows;
  let db = Database.create () in
  let load name seed =
    let (_ : Table.t) =
      Database.create_table db ~name ~columns:[ "k"; "v" ]
    in
    Relation.iter
      (fun t e -> Database.insert db name t ~texp:e)
      (build_side ~rows ~seed)
  in
  load "L" 11;
  load "R" 23;
  let expr = Algebra.join join_pred (Algebra.base "L") (Algebra.base "R") in
  let scan name = Plan.Scan { name; pred = None; access = Access.Full_scan } in
  let left = scan "L" and right = scan "R" in
  let nested =
    pinned expr (Plan.Nested_loop { pred = join_pred; left; right })
  in
  let hash =
    pinned expr
      (Plan.Hash_join { pairs = [ (1, 1) ]; pred = join_pred; left; right })
  in
  let compiled = Planner.plan ~db expr in
  let operator = Plan.operator_name compiled.Plan.physical in
  let nested_answer, nested_s =
    Bench_util.time_it (fun () -> Executor.run ~db nested)
  in
  let reps = 20 in
  let time_reps plan =
    let (), s =
      Bench_util.time_it (fun () ->
          for _ = 1 to reps do
            ignore (Executor.run ~db plan : Eval.result)
          done)
    in
    s /. float_of_int reps
  in
  let hash_s = time_reps hash and planned_s = time_reps compiled in
  if
    not
      (Relation.equal nested_answer.Eval.relation
         (Executor.run ~db hash).Eval.relation)
  then failwith "hash and nested-loop joins disagree";
  Bench_util.param "planned_join_operator" operator;
  Bench_util.metric "join_nested_loop_us" (nested_s *. 1e6);
  Bench_util.metric "join_hash_us" (hash_s *. 1e6);
  Bench_util.metric "join_planned_us" (planned_s *. 1e6);
  Bench_util.metric "join_hash_speedup" (nested_s /. Float.max 1e-9 hash_s);
  Bench_util.table
    ~headers:[ "physical join (scans included)"; "us/join"; "speedup" ]
    [ [ "nested loop"; Bench_util.f1 (nested_s *. 1e6); "1.0" ];
      [ "hash build/probe"; Bench_util.f1 (hash_s *. 1e6);
        Bench_util.f1 (nested_s /. Float.max 1e-9 hash_s) ];
      [ Printf.sprintf "planned (%s)" operator;
        Bench_util.f1 (planned_s *. 1e6);
        Bench_util.f1 (nested_s /. Float.max 1e-9 planned_s) ] ]

let live_scan_sweep () =
  let rows = 100_000 in
  Bench_util.subsection
    (Printf.sprintf "live scan of %d rows, nothing expired" rows);
  Bench_util.param_int "scan_rows" rows;
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) =
    Database.create_table db ~name:"feed" ~columns:[ "id"; "v" ]
  in
  for i = 1 to rows do
    Database.insert db "feed" (Tuple.ints [ i; i * 7 ])
      ~texp:(Time.of_int 1_000_000)
  done;
  let tbl = Database.table_exn db "feed" in
  (* First snapshot builds the cache; repeats are O(1) while no row has
     expired since (generation unchanged, next expiry in the future). *)
  let (), first_s =
    Bench_util.time_it (fun () ->
        ignore (Table.snapshot tbl ~tau:(Database.now db)))
  in
  let reps = 10_000 in
  let (), cached_s =
    Bench_util.time_it (fun () ->
        for _ = 1 to reps do
          ignore (Table.snapshot tbl ~tau:(Database.now db))
        done)
  in
  let cached_s = cached_s /. float_of_int reps in
  Bench_util.metric "scan_first_us" (first_s *. 1e6);
  Bench_util.metric "scan_cached_us" (cached_s *. 1e6);
  Bench_util.table
    ~headers:[ "snapshot"; "us" ]
    [ [ "first (builds cache)"; Bench_util.f1 (first_s *. 1e6) ];
      [ "repeat (cache hit)"; Bench_util.f2 (cached_s *. 1e6) ] ]

let plan_cache_sweep () =
  Bench_util.subsection "statement + plan cache on the request path";
  let t = Interp.create () in
  let run sql =
    match Interp.exec_sql t sql with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  run "CREATE TABLE pol (uid, deg)";
  run "CREATE TABLE el (uid, kind)";
  run "CREATE INDEX ON pol (uid)";
  run "CREATE INDEX ON el (uid)";
  for i = 1 to 200 do
    run
      (Printf.sprintf "INSERT INTO pol VALUES (%d, %d) EXPIRES 1000000" i
         (i mod 40));
    run
      (Printf.sprintf "INSERT INTO el VALUES (%d, %d) EXPIRES 1000000" i
         (i mod 7))
  done;
  (* Point-lookup join, one row either way: eval is a pair of index
     probes, so nearly all of the cold-statement cost is parse + lower
     + plan — the stages the caches exist to skip. *)
  let stmt k =
    Printf.sprintf
      "SELECT pol.uid, el.kind FROM pol JOIN el ON pol.uid = el.uid WHERE \
       pol.uid = %d"
      k
  in
  let hot = stmt 41 in
  (* The cold side rotates through 100 even uids — more distinct texts
     than the 64-slot LRUs hold, so every cold request misses both
     caches and pays parse + lower + plan in full, forever.  Odd hot
     uid means the rotation never collides with the hot entry. *)
  let cold i = stmt (2 * (i mod 100) + 2) in
  let reps = 2_000 in
  Bench_util.param_int "plan_cache_reps" reps;
  (* Warm both paths before timing anything: the first few hundred
     requests after table load pay allocator/GC ramp-up that otherwise
     lands entirely on whichever loop runs first and swamps the
     few-microsecond effect being measured. *)
  for i = 1 to 500 do
    run hot;
    run (cold i)
  done;
  (* Interleave the two paths rep by rep instead of timing two back-to-
     back loops: the quantity of interest is a difference of a few
     microseconds, and heap/GC drift between two multi-second loops is
     larger than that.  Alternating means any drift lands on both sides
     equally. *)
  let cached_total = ref 0. in
  let uncached_total = ref 0. in
  for i = 1 to reps do
    let (), u = Bench_util.time_it (fun () -> run (cold i)) in
    uncached_total := !uncached_total +. u;
    let (), c = Bench_util.time_it (fun () -> run hot) in
    cached_total := !cached_total +. c
  done;
  let cached_s = !cached_total in
  let uncached_s = !uncached_total in
  let cached_us = cached_s *. 1e6 /. float_of_int reps in
  let uncached_us = uncached_s *. 1e6 /. float_of_int reps in
  let stats = Interp.plan_cache_stats t in
  Bench_util.metric "plan_cached_us_per_req" cached_us;
  Bench_util.metric "plan_uncached_us_per_req" uncached_us;
  Bench_util.metric "plan_savings_us_per_req" (uncached_us -. cached_us);
  Bench_util.metric_int "plan_cache_hits" stats.Interp.hits;
  Bench_util.metric_int "plan_cache_misses" stats.Interp.misses;
  Bench_util.table
    ~headers:[ "request path"; "us/request" ]
    [ [ "repeated statement (cache hit)"; Bench_util.f2 cached_us ];
      [ "cold statement (parse + lower + plan)"; Bench_util.f2 uncached_us ]
    ];
  Printf.printf "cache counters: %d hits, %d misses\n" stats.Interp.hits
    stats.Interp.misses

(* One session holding [n] rows of [s], row i expiring at i + 1, and
   optionally one constraint over them (it holds until the last row
   expires). *)
let standing_session ~n ~constraint_ =
  let t = Interp.create () in
  let run sql =
    match Interp.exec_sql t sql with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  run "CREATE TABLE s (sid, uid)";
  let db = Interp.database t in
  for i = 0 to n - 1 do
    Database.insert_values db "s"
      [ Value.int i; Value.int (i mod 97) ]
      ~texp:(Time.of_int (i + 1))
  done;
  if constraint_ then run "CREATE CONSTRAINT c ON SELECT sid FROM s MIN 1";
  (t, run)

(* The median of [reps] timings of [measure], each on a fresh session:
   the timed statement moves the clock, so it cannot repeat in place. *)
let median_us ~reps measure =
  let samples = List.init reps (fun _ -> measure ()) in
  let sorted = List.sort Float.compare samples in
  List.nth sorted (reps / 2) *. 1e6

let standing_sweep () =
  Bench_util.subsection
    "standing queries: n rows expiring at 1..n, ADVANCE TO n/2";
  let reps = 5 in
  Bench_util.param_int "standing_reps" reps;
  let rows =
    List.map
      (fun n ->
        let half = n / 2 in
        let advance ~constraint_ () =
          let _, run = standing_session ~n ~constraint_ in
          snd
            (Bench_util.time_it (fun () ->
                 run (Printf.sprintf "ADVANCE TO %d" half)))
        in
        let show () =
          let _, run = standing_session ~n ~constraint_:true in
          snd (Bench_util.time_it (fun () -> run "SHOW CONSTRAINTS"))
        in
        let watch () =
          let t, run = standing_session ~n ~constraint_:false in
          let events = ref 0 in
          (match
             Interp.subscribe t ~name:"w"
               (Parser.parse_statement "SELECT sid FROM s")
               (fun _ -> incr events)
           with
           | Ok () -> ()
           | Error e -> failwith e);
          let (), s =
            Bench_util.time_it (fun () ->
                run (Printf.sprintf "ADVANCE TO %d" half))
          in
          if !events <> half then
            failwith
              (Printf.sprintf "watch fired %d events, expected %d" !events half);
          s
        in
        let constrained = median_us ~reps (advance ~constraint_:true) in
        let shown = median_us ~reps show in
        let bare = median_us ~reps (advance ~constraint_:false) in
        let watched = median_us ~reps watch in
        let key what = Printf.sprintf "standing_%s_us_n%d" what n in
        Bench_util.metric (key "advance_constraint") constrained;
        Bench_util.metric (key "show_constraints") shown;
        Bench_util.metric (key "advance_bare") bare;
        Bench_util.metric (key "advance_watch") watched;
        [ string_of_int n;
          Bench_util.f1 constrained;
          Bench_util.f1 shown;
          Bench_util.f1 bare;
          Bench_util.f1 watched ])
      [ 1_000; 8_000; 10_000 ]
  in
  Bench_util.table
    ~headers:
      [ "n"; "ADVANCE, 1 constraint us"; "SHOW CONSTRAINTS us";
        "ADVANCE, none us"; "ADVANCE, 1 watch us" ]
    rows

let run_all () =
  Bench_util.section "Experiment exp-exec: physical query execution";
  join_sweep ();
  live_scan_sweep ();
  plan_cache_sweep ();
  standing_sweep ()
