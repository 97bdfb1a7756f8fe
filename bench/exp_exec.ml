(* Experiment exp-exec: the physical execution layer.

   Each claim measured:

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
   - standing queries (constraints, watches) are entries that writes
     keep current: a clock move or SHOW CONSTRAINTS costs one
     change-time walk per entry, O(k log n + events) for k rows due,
     and runs no plan of a query the walk need not refresh;
   - the relation tree's [diff] against a path copy and its [exp] of a
     few rows cost what changed or expired: their 10^5-row figures stay
     within a small factor of the 10^3-row ones;
   - a watch's TICK costs what expires, not what the watch holds: the
     figures at 10^2, 10^4 and 10^5 watch rows stay within 2x, and a
     constraint over the same query ticks, and takes an INSERT, within
     2x of the watch.

   Expected shape: hash join >= 10x over the nested loop (in practice
   thousands of x); repeated statements measurably cheaper than cold
   ones; an ADVANCE under one constraint within 1.5x of an ADVANCE
   under one watch over the same rows. *)

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

(* The median of timings, in microseconds. *)
let median_us samples =
  List.nth (List.sort Float.compare samples) (List.length samples / 2) *. 1e6

(* One statement timed from a compacted heap: a session's build leaves
   garbage a major slice would otherwise charge to it. *)
let timed run sql =
  Gc.compact ();
  snd (Bench_util.time_it (fun () -> run sql))

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
          timed run (Printf.sprintf "ADVANCE TO %d" half)
        in
        let show () =
          let _, run = standing_session ~n ~constraint_:true in
          timed run "SHOW CONSTRAINTS"
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
          let s = timed run (Printf.sprintf "ADVANCE TO %d" half) in
          if !events <> half then
            failwith
              (Printf.sprintf "watch fired %d events, expected %d" !events half);
          s
        in
        (* the four shapes in turn, so a stall of the host reaches all *)
        let samples =
          List.init reps (fun _ ->
              [ advance ~constraint_:true (); show (); advance ~constraint_:false (); watch () ])
        in
        let median i = median_us (List.map (fun s -> List.nth s i) samples) in
        let constrained = median 0 and shown = median 1 and bare = median 2 and watched = median 3 in
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

(* The relation tree against its size: [diff] of an answer and a path
   copy of it with 10 rows re-dated by [replace], and [exp] dropping 5
   rows, each the mean of [reps] calls.  Rows are inserted in shuffled
   order, row i expiring at i + 1, so the expiring rows scatter over the
   tree. *)
let relation_sweep () =
  Bench_util.subsection "relation tree: diff against a path copy, exp of a few rows";
  let reps = 200 in
  Bench_util.param_int "relation_reps" reps;
  let rows =
    List.map
      (fun n ->
        let rng = Bench_util.rng n in
        let order = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- x
        done;
        let tuple i = Tuple.ints [ i; i mod 97 ] in
        let r =
          Array.fold_left
            (fun r i -> Relation.add (tuple i) ~texp:(Time.of_int (i + 1)) r)
            (Relation.empty ~arity:2) order
        in
        let changed =
          List.fold_left
            (fun r k -> Relation.replace (tuple (k * (n / 10))) ~texp:(Time.of_int (2 * n + k)) r)
            r (List.init 10 Fun.id)
        in
        (match Relation.diff ~limit:max_int r changed with
         | Some (ups, [], m) when List.length ups = 10 && m = n -> ()
         | _ -> failwith "relation diff: expected 10 re-dated rows");
        if Relation.cardinal (Relation.exp (Time.of_int 5) r) <> n - 5 then
          failwith "relation exp: expected 5 rows dropped";
        let mean_us f =
          let (), s = Bench_util.time_it (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done) in
          s *. 1e6 /. float_of_int reps
        in
        let diff_us = mean_us (fun () -> Relation.diff ~limit:max_int r changed) in
        let exp_us = mean_us (fun () -> Relation.exp (Time.of_int 5) r) in
        Bench_util.metric (Printf.sprintf "relation_diff_n%d_us" n) diff_us;
        Bench_util.metric (Printf.sprintf "relation_exp_n%d_us" n) exp_us;
        [ string_of_int n; Bench_util.f2 diff_us; Bench_util.f2 exp_us ])
      [ 1_000; 100_000 ]
  in
  Bench_util.table ~headers:[ "rows"; "diff, 10 changed us"; "exp, 5 expiring us" ] rows

(* One watch over a 10^5-row table, holding [w] of its rows through a
   [uid < b] filter, and a TICK 1 that expires a fixed 5 of them: the
   tick's cost against the watch's size, the table's held constant (as
   ROADMAP item 4's table was measured).  The first [ticks * 5] rows
   expire 5 per tick and sit in every watch (uid 0); the rest expire
   long after, spread over 1000 uids.  A second session holds the same
   table under a [MIN 1] constraint over the watch's query instead,
   which never turns violated.  From a compacted heap, the two sessions
   take their ticks in turn, so a stall of the host reaches both; each
   row is the median of [ticks] ticks.  At w = 10^5 the two then take
   [ticks] single-row INSERTs of uid 0 in turn, each a row of the
   standing query's answer, and report their medians. *)
let watch_tick_sweep () =
  Bench_util.subsection "a watch's TICK 1: 5 rows expiring, the watch holding w of 10^5";
  let table_rows = 100_000 and ticks = 10 and per_tick = 5 in
  Bench_util.param_int "watch_table_rows" table_rows;
  Bench_util.param_int "watch_ticks" ticks;
  Bench_util.param_int "watch_expiring_per_tick" per_tick;
  let expiring = ticks * per_tick in
  let uid i = if i < expiring then 0 else i mod 1000 in
  (* The table under one standing query: the session's statement runner. *)
  let session standing =
    let t = Interp.create () in
    let run sql =
      match Interp.exec_sql t sql with
      | Ok outcome -> Interp.render outcome
      | Error e -> failwith e
    in
    ignore (run "CREATE TABLE s (sid, uid)");
    let db = Interp.database t in
    for i = 0 to table_rows - 1 do
      let texp = if i < expiring then (i / per_tick) + 1 else 1_000_000 in
      Database.insert_values db "s" [ Value.int i; Value.int (uid i) ]
        ~texp:(Time.of_int texp)
    done;
    standing t run;
    run
  in
  (* [ticks] statements through each session in turn, and the two
     medians; a clock move reporting a violation fails the bench. *)
  let in_turn watched constrained statement =
    let timed run i =
      let m, s = Bench_util.time_it (fun () -> run (statement i)) in
      if String.contains m '\n' then failwith ("constraint turned violated: " ^ m);
      s
    in
    let w, c = List.split (List.init ticks (fun i -> (timed watched i, timed constrained i))) in
    (median_us w, median_us c)
  in
  let rows =
    List.map
      (fun (w, b) ->
        let query = Printf.sprintf "SELECT sid, uid FROM s WHERE uid < %d" b in
        let events = ref 0 in
        let watched =
          session (fun t _ ->
              match
                Interp.subscribe t ~name:"w" (Parser.parse_statement query)
                  (fun _ -> incr events)
              with
              | Ok () -> ()
              | Error e -> failwith e)
        in
        let constrained =
          session (fun _ run -> ignore (run ("CREATE CONSTRAINT c ON " ^ query ^ " MIN 1")))
        in
        Gc.compact ();
        let watch, constraint_ = in_turn watched constrained (fun _ -> "TICK 1") in
        if !events <> expiring then
          failwith (Printf.sprintf "watch fired %d events, expected %d" !events expiring);
        let inserts =
          if w < table_rows then None
          else
            Some
              (in_turn watched constrained (fun i ->
                   Printf.sprintf "INSERT INTO s VALUES (%d, 0) EXPIRES 2000000"
                     (table_rows + i)))
        in
        let held = List.length (List.filter (fun i -> uid i < b) (List.init table_rows Fun.id)) in
        let key what = Printf.sprintf "standing_%s_us_w%d" what w in
        Bench_util.metric (key "advance_watch") watch;
        Bench_util.metric (key "advance_constraint") constraint_;
        Option.iter
          (fun (watch, constraint_) ->
            Bench_util.metric (key "insert_watch") watch;
            Bench_util.metric (key "insert_constraint") constraint_)
          inserts;
        let cell f = Option.fold inserts ~none:"-" ~some:(fun p -> Bench_util.f1 (f p)) in
        [ string_of_int w; string_of_int held; Bench_util.f1 watch; Bench_util.f1 constraint_;
          cell fst; cell snd ])
      [ (100, 1); (10_000, 100); (100_000, 1000) ]
  in
  Bench_util.table
    ~headers:
      [ "watch rows"; "held"; "TICK 1 us"; "TICK 1, constraint us"; "INSERT us";
        "INSERT, constraint us" ]
    rows

let run_all () =
  Bench_util.section "Experiment exp-exec: physical query execution";
  join_sweep ();
  live_scan_sweep ();
  plan_cache_sweep ();
  standing_sweep ();
  relation_sweep ();
  watch_tick_sweep ()
