(* The observability experiment: a live server under a small workload,
   its Prometheus exposition fetched and validated over the wire, SLOW
   asked for the slowest recent traces (the trace store ranked by
   duration) and their span breakdowns, and the raw instrument
   costs micro-timed — what does always-on tracing cost a request, and
   what does a METRICS scrape cost the server? *)

open Expirel_server
module Core = Expirel_core
module Storage = Expirel_storage
module Exec = Expirel_exec
module Obs = Expirel_obs

let scrapes = 50
let workload_requests = 400

(* ---- EXPLAIN ANALYZE: what does the traced run cost a plan? ----

   The same compiled plan runs untraced (the request path's default)
   and as EXPLAIN ANALYZE runs it: under a fresh trace, every operator
   in an [op:] span labelled with its rows and counters.  Rendering
   those spans afterwards is output formatting, a few lines per plan
   node whatever the data, and is not timed here.

   Runs come in batches, and batches in adjacent pairs — one untraced,
   one traced, the order alternating from pair to pair — so each pair
   sees the same machine state, and the overhead is the median of the
   per-pair ratios.  A shared host's drift (CPU frequency, a
   neighbour's load) moves both halves of a pair alike and cancels in
   its ratio, where the ratio of two independent medians keeps it; the
   median across pairs then ignores the one-sided spikes left over.
   That is what lets the budget sit at a tight 5% — EXPLAIN ANALYZE is
   priced per statement, not per deployment. *)

let profile_rows = 10_000
let profile_pairs = 150
let profile_runs_per_batch = 5
let profile_warmups = 50

(* The plan measured here is a filter over a hash join of two scans. *)
let bench_profiling_overhead () =
  Bench_util.subsection "profiling overhead (EXPLAIN ANALYZE's traced run)";
  let open Storage in
  let db = Database.create ~policy:Database.Lazy () in
  let (_ : Table.t) =
    Database.create_table db ~name:"pol" ~columns:[ "uid"; "deg" ]
  in
  let (_ : Table.t) =
    Database.create_table db ~name:"el" ~columns:[ "uid"; "peer" ]
  in
  for i = 1 to profile_rows do
    Database.insert db "pol"
      (Core.Tuple.of_list [ Core.Value.Int i; Core.Value.Int (i mod 50) ])
      ~texp:(Core.Time.of_int (10 + (i mod 90)));
    if i mod 20 = 0 then
      Database.insert db "el"
        (Core.Tuple.of_list [ Core.Value.Int i; Core.Value.Int (i / 20) ])
        ~texp:(Core.Time.of_int 100)
  done;
  Database.advance_to db (Core.Time.of_int 30);
  let expr =
    Core.Algebra.select
      (Core.Predicate.Cmp
         (Core.Predicate.Lt, Core.Predicate.Col 2,
          Core.Predicate.Const (Core.Value.Int 25)))
      (Core.Algebra.join (Core.Predicate.eq_cols 1 3)
         (Core.Algebra.base "pol") (Core.Algebra.base "el"))
  in
  let compiled = Exec.Planner.plan ~db expr in
  let run_off () = ignore (Exec.Executor.run ~db compiled : Core.Eval.result) in
  let run_on () =
    ignore
      (Exec.Executor.run ~trace:(Obs.Trace.create ()) ~db compiled
        : Core.Eval.result)
  in
  (* Start from a compacted heap and warm both paths before timing:
     the garbage the earlier sections left behind is otherwise collected
     during the first pairs, which then read a few points high. *)
  Gc.compact ();
  for _ = 1 to profile_warmups do
    run_off ();
    run_on ()
  done;
  let batch f =
    let (), s =
      Bench_util.time_it (fun () ->
          for _ = 1 to profile_runs_per_batch do
            f ()
          done)
    in
    s /. float_of_int profile_runs_per_batch
  in
  let median samples =
    match List.sort Float.compare samples with
    | [] -> nan
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let pairs =
    List.init profile_pairs (fun i ->
        if i mod 2 = 0 then
          let off = batch run_off in
          (off, batch run_on)
        else
          let on = batch run_on in
          (batch run_off, on))
  in
  let off_ms = median (List.map fst pairs) *. 1e3
  and on_ms = median (List.map snd pairs) *. 1e3 in
  let overhead_pct =
    median (List.map (fun (off, on) -> (on /. off -. 1.) *. 100.) pairs)
  in
  Bench_util.param_int "profile_rows" profile_rows;
  Bench_util.metric "exec_unprofiled_ms" off_ms;
  Bench_util.metric "exec_profiled_ms" on_ms;
  Bench_util.metric "profile_overhead_pct" overhead_pct;
  Printf.printf
    "plan over %d rows: %.3f ms untraced, %.3f ms traced (%+.1f%% median \
     per-pair overhead)\n"
    profile_rows off_ms on_ms overhead_pct;
  (* The budget gates regressions (a traced run costing a multiple of
     an untraced one), not scheduler luck: the median of paired ratios
     holds the no-change spread to a few points even on a shared
     machine (EXPERIMENTS.md), so the line sits at 5% — above the
     remaining noise floor, below an injected 10% per-operator cost. *)
  if overhead_pct >= 5.0 then
    failwith
      (Printf.sprintf "profiling overhead %.1f%% breaches the 5%% budget"
         overhead_pct)

(* ---- one point request's trace: what recording it costs ----

   The trace a point check leaves on a node: parse, lock wait, lower,
   plan, and eval over three operators (8 spans; 6 counter labels on
   the operators), created, recorded, filed into the stage and
   operator histograms and stored in the trace ring — the server's own
   path after a request ([Metrics.observe_trace], then
   [Trace_store.finish]), minus the statement itself.  The ring is
   filled first, so every slot's buffer exists and the words counted
   are what each request allocates; the allocation count repeats
   exactly from run to run. *)

let trace_point_iters = 20_000
let trace_point_words_budget = 150.

let bench_trace_point () =
  Bench_util.subsection "one point request's trace (create, record, observe, store)";
  let n = Obs.Trace.name in
  let parse = n "parse" and rwlock_wait = n "rwlock_wait" and lower = n "lower"
  and plan = n "plan" and eval = n "eval" and project = n "op:project"
  and filter = n "op:filter" and scan = n "op:index-scan" in
  let rows = n "rows" and dropped = n "dropped" and visited = n "visited"
  and batches = n "batches" in
  let metrics = Metrics.create () and store = Obs.Trace_store.create () in
  let sql = "SELECT sid, uid FROM sessions WHERE sid = 4711" in
  let one () =
    let tr = Obs.Trace.create () in
    let trace = Some tr in
    Obs.Trace.span trace parse ignore;
    Obs.Trace.span trace rwlock_wait ignore;
    Obs.Trace.span trace lower ignore;
    Obs.Trace.span trace plan ignore;
    Obs.Trace.span trace eval (fun () ->
        Obs.Trace.span trace project (fun () ->
            Obs.Trace.span trace filter (fun () ->
                Obs.Trace.span trace scan (fun () ->
                    Obs.Trace.count trace rows 1;
                    Obs.Trace.count trace dropped 0;
                    Obs.Trace.count trace visited 1);
                Obs.Trace.count trace rows 1;
                Obs.Trace.count trace batches 1);
            Obs.Trace.count trace rows 1));
    Metrics.observe_trace metrics tr;
    Obs.Trace_store.finish store ~node:"primary" ~name:sql tr
  in
  for _ = 1 to 2 * 256 do
    one ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to trace_point_iters do
    one ()
  done;
  let words =
    Float.round ((Gc.minor_words () -. w0) /. float_of_int trace_point_iters)
  in
  let (), s =
    Bench_util.time_it (fun () ->
        for _ = 1 to trace_point_iters do
          one ()
        done)
  in
  let ns = s /. float_of_int trace_point_iters *. 1e9 in
  Bench_util.metric "trace_point_words" words;
  Bench_util.metric "trace_point_ns" ns;
  Printf.printf "%.0f minor words, %.0f ns per point-request trace (n=%d)\n"
    words ns trace_point_iters;
  if words > trace_point_words_budget then
    failwith
      (Printf.sprintf "a point-request trace allocates %.0f words, over the %.0f budget"
         words trace_point_words_budget)

(* A sample line is `name{labels} value`; validate the value parses
   (Prometheus float, "+Inf" allowed) and count families and samples. *)
let validate_exposition text =
  let families = ref 0 and samples = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then
           incr families
         else if line.[0] = '#' then ()
         else begin
           incr samples;
           match String.rindex_opt line ' ' with
           | None -> failwith ("unparsable exposition line: " ^ line)
           | Some i ->
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             if v <> "+Inf" && v <> "-Inf" && v <> "NaN"
                && float_of_string_opt v = None
             then failwith ("bad sample value: " ^ line)
         end);
  (!families, !samples)

let run_all () =
  Bench_util.section "observability: tracing, exposition, slowest traces";
  let server = Server.create () in
  Server.start server;
  let port = Server.port server in
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  let ok = function Ok v -> v | Error e -> failwith e in

  (* ---- a workload worth observing: inserts, queries, expirations ---- *)
  Bench_util.subsection "workload";
  ok (Client.exec_ok client "CREATE TABLE pol (uid, deg)");
  let (), load_s =
    Bench_util.time_it (fun () ->
        for i = 1 to workload_requests do
          let sql =
            match i mod 4 with
            | 0 -> "SELECT uid, deg FROM pol WHERE deg < 30"
            | 1 -> "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
            | _ ->
              Printf.sprintf "INSERT INTO pol VALUES (%d, %d) EXPIRES %d" i
                (20 + (i mod 20))
                (10 + (i mod 50))
          in
          match Client.exec client sql with
          | Ok _ -> ()
          | Error e -> failwith e
        done;
        ok (Client.exec_ok client "ADVANCE TO 40"))
  in
  Bench_util.param_int "workload_requests" workload_requests;
  Bench_util.metric "workload_req_per_s"
    (float_of_int workload_requests /. load_s);
  Printf.printf "%d requests in %.3fs (%.0f req/s, tracing always on)\n"
    workload_requests load_s
    (float_of_int workload_requests /. load_s);

  (* ---- METRICS scrapes: validity and cost ---- *)
  Bench_util.subsection "prometheus exposition";
  let text = ok (Client.metrics client) in
  let families, samples = validate_exposition text in
  if families = 0 || samples = 0 then failwith "empty exposition";
  let required =
    [ "expirel_request_duration_seconds_bucket";
      "expirel_eval_operator_duration_seconds_bucket";
      "expirel_request_stage_duration_seconds_bucket";
      "expirel_tuples_expired_total";
      "expirel_expiration_index_depth";
      (* the forward-looking families, and the build identity *)
      "expirel_horizon_rows_bucket";
      "expirel_horizon_fanout_events";
      "expirel_churn_rate";
      "expirel_build_info";
      "expirel_uptime_seconds" ]
  in
  List.iter
    (fun name ->
      let sub = name and s = text in
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      if not (go 0) then failwith ("exposition missing " ^ name))
    required;
  let (), scrape_s =
    Bench_util.time_it (fun () ->
        for _ = 1 to scrapes do
          ignore (ok (Client.metrics client))
        done)
  in
  Bench_util.metric_int "exposition_bytes" (String.length text);
  Bench_util.metric_int "metric_families" families;
  Bench_util.metric_int "metric_samples" samples;
  Bench_util.metric "scrape_ms" (scrape_s /. float_of_int scrapes *. 1e3);
  Bench_util.table
    ~headers:[ "exposition"; "value" ]
    [ [ "bytes"; string_of_int (String.length text) ];
      [ "families"; string_of_int families ];
      [ "samples"; string_of_int samples ];
      [ "scrape avg"; Printf.sprintf "%.2f ms" (scrape_s /. float_of_int scrapes *. 1e3) ] ];

  (* ---- SLOW: the trace store's slowest recent requests ---- *)
  Bench_util.subsection "slowest traces";
  let slow = ok (Client.slow_queries client 3) in
  if slow = [] then failwith "SLOW found no trace after the workload";
  List.iter
    (fun (e : Obs.Trace_store.entry) ->
      Printf.printf "%6dus  %s (%d spans)\n" e.total_us e.name
        (List.length e.spans))
    slow;
  let breakdowns =
    List.for_all (fun (e : Obs.Trace_store.entry) -> e.spans <> []) slow
  in
  if not breakdowns then failwith "the slowest traces lack span breakdowns";
  Bench_util.metric_int "slow_top_us"
    (match slow with e :: _ -> e.total_us | [] -> 0);

  Client.close client;
  Server.stop server;

  (* ---- the expiration horizon: scan cost, merge cost, exactness ---- *)
  Bench_util.subsection "horizon forecast";
  let hdb = Storage.Database.create () in
  let (_ : Storage.Table.t) =
    Storage.Database.create_table hdb ~name:"h" ~columns:[ "k"; "v" ]
  in
  let horizon_rows = 100_000 in
  for i = 1 to horizon_rows do
    Storage.Database.insert hdb "h"
      (Core.Tuple.of_list [ Core.Value.Int i; Core.Value.Int 0 ])
      ~texp:
        (if i mod 7 = 0 then Core.Time.Inf
         else Core.Time.of_int (1 + (i mod 20_000)))
  done;
  let bounds = Obs.Horizon.default_bounds in
  (* the bucket cut rides the expiration order: O(log n + buckets), so
     pricing it over 100k rows lands in microseconds, not milliseconds *)
  let scan_iters = 500 in
  let (), scan_s =
    Bench_util.time_it (fun () ->
        for _ = 1 to scan_iters do
          ignore
            (Storage.Database.expiring_within hdb ~bounds
              : (string * int array) list)
        done)
  in
  let scan_us = scan_s /. float_of_int scan_iters *. 1e6 in
  Bench_util.param_int "horizon_bench_rows" horizon_rows;
  Bench_util.metric "horizon_scan_us" scan_us;
  (* bucket-wise merge of shard partials, as the coordinator runs it *)
  let partial shard =
    { Obs.Horizon.now = 40;
      window = Obs.Horizon.default_window;
      fanout_events = shard;
      arrival_rate = 1.0;
      expiration_rate = 1.0;
      tables =
        List.map
          (fun name ->
            { Obs.Horizon.name;
              bounds;
              counts = Array.mapi (fun i _ -> (shard + i) land 7) bounds })
          [ "aux"; "pol"; "s" ];
      shards = []
    }
  in
  let partials = List.init 8 partial in
  let merge_iters = 2_000 in
  let (), merge_s =
    Bench_util.time_it (fun () ->
        for _ = 1 to merge_iters do
          ignore (Obs.Horizon.merge_reports partials : Obs.Horizon.report)
        done)
  in
  let merge_us = merge_s /. float_of_int merge_iters *. 1e6 in
  Bench_util.metric "horizon_merge_us" merge_us;
  (* the forecast is exact: the 1024-tick bucket cut equals the rows the
     ADVANCE to 1024 then drops *)
  let profile = Storage.Database.expiring_within hdb ~bounds in
  let d = 1024 in
  let predicted =
    List.fold_left
      (fun acc (_, counts) ->
        let t = ref acc in
        Array.iteri
          (fun i c -> if bounds.(i) <> max_int && bounds.(i) <= d then t := !t + c)
          counts;
        !t)
      0 profile
  in
  let expired_before = Storage.Database.expired_total hdb in
  Storage.Database.advance_to hdb (Core.Time.of_int d);
  let dropped = Storage.Database.expired_total hdb - expired_before in
  let exact = dropped = predicted in
  Bench_util.metric_int "horizon_forecast_exact" (if exact then 1 else 0);
  Printf.printf
    "scan %.1f us over %d rows, 8-shard merge %.1f us, forecast %s \
     (predicted %d = dropped %d)\n"
    scan_us horizon_rows merge_us
    (if exact then "exact" else "MISMATCH")
    predicted dropped;
  if not exact then
    failwith
      (Printf.sprintf "horizon forecast mismatch: predicted %d, dropped %d"
         predicted dropped);

  (* ---- raw instrument costs ---- *)
  Bench_util.subsection "instrument micro-costs";
  let n = 1_000_000 in
  let c = Obs.Instrument.Counter.create () in
  let (), counter_s =
    Bench_util.time_it (fun () ->
        for _ = 1 to n do
          Obs.Instrument.Counter.incr c
        done)
  in
  let h = Obs.Instrument.Histogram.create () in
  let (), histo_s =
    Bench_util.time_it (fun () ->
        for i = 1 to n do
          Obs.Instrument.Histogram.observe h (i land 0xffff)
        done)
  in
  Bench_util.metric "counter_incr_ns" (counter_s /. float_of_int n *. 1e9);
  Bench_util.metric "histogram_observe_ns" (histo_s /. float_of_int n *. 1e9);
  Printf.printf "counter incr %.0f ns, histogram observe %.0f ns (n=%d)\n"
    (counter_s /. float_of_int n *. 1e9)
    (histo_s /. float_of_int n *. 1e9)
    n;

  bench_trace_point ();
  bench_profiling_overhead ()
