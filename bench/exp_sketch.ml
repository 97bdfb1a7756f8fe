(* Experiment exp-sketch: bounded-memory sketches vs exact evaluation
   over an expiring sensor stream.

   A monitoring stream of N events (default 10^7; override with
   EXPIREL_SKETCH_EVENTS for smoke runs) is generated twice from the
   same seed: once folded into the sketches — the counter, the uniform
   live sample and the spread coreset — and once replayed to compute
   exact answers.  Nothing is retained between passes except the
   sketches themselves, so the measured footprints are honest.

   Measured:

   - sketch memory against the materialised relation at the same N
     (the acceptance headline: >= 100x at 10^7 events);
   - per-add and per-query latency of the counter;
   - the counter's measured error against exact live counts at several
     query times, next to its advertised epsilon and its own reported
     [within] bound;
   - the 3-way merge path at full scale, in process: the stream split
     by sensor into three shard-partials, merged, queried — plus the
     serialised partial size, i.e. what a shard ships to the
     coordinator;
   - a real 3-shard cluster (loopback sockets) answering
     APPROX_COUNT / SAMPLE by sketch-partial merge, and the exact
     global COUNT it can now combine, with per-statement latency. *)

open Expirel_core
open Expirel_server
module Sensors = Expirel_workload.Sensors
module Sketch = Expirel_sketch
module Coordinator = Expirel_cluster.Coordinator

let seed = 2006
let epsilon = 0.01
let sample_k = 100

let events_target =
  match int_of_string_opt (try Sys.getenv "EXPIREL_SKETCH_EVENTS" with Not_found -> "") with
  | Some n when n > 0 -> n
  | _ -> 10_000_000

let sensors = min 10_000 (max 1 (events_target / 100))
let period = 10
let jitter = 3
let per_sensor = max 1 (events_target / sensors)
let horizon = per_sensor * period
let events = sensors * per_sensor

let iter_stream f =
  Sensors.iter ~rng:(Bench_util.rng seed) ~sensors ~period ~horizon ~jitter f

let texp_of = Sensors.texp_of ~period ~jitter

(* Query times spread over the stream's life: early, middle, late. *)
let taus =
  List.map (fun f -> Time.of_int (int_of_float (float_of_int horizon *. f)))
    [ 0.25; 0.5; 0.75; 0.95 ]

let exact_live_counts () =
  let counts = Array.make (List.length taus) 0 in
  iter_stream (fun s ->
      let texp = texp_of s in
      List.iteri
        (fun i tau -> if Time.(texp > tau) then counts.(i) <- counts.(i) + 1)
        taus);
  counts

let heap_bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

let run_all () =
  Bench_util.section "exp-sketch: bounded memory over an expiring stream";
  Bench_util.param_int "events" events;
  Bench_util.param_int "sensors" sensors;
  Bench_util.param_int "period" period;
  Bench_util.param "epsilon" (string_of_float epsilon);
  Bench_util.param_int "sample_k" sample_k;

  (* ---- fold the stream into the three sketches ---- *)
  Bench_util.subsection
    (Printf.sprintf "single pass over %d events" events);
  let counter = Sketch.Counter.create ~epsilon in
  let (), add_s =
    Bench_util.time_it (fun () ->
        iter_stream (fun s -> Sketch.Counter.add counter ~texp:(texp_of s)))
  in
  let sample = Sketch.Sample.create ~seed ~k:sample_k () in
  iter_stream (fun s ->
      Sketch.Sample.add sample
        [ Value.int s.Sensors.sensor; Value.int s.Sensors.value ]
        ~texp:(texp_of s));
  let spread = Expirel_paper.Spread.create ~epsilon in
  iter_stream (fun s ->
      Expirel_paper.Spread.add spread (float_of_int s.Sensors.value) ~texp:(texp_of s));
  let add_ns = add_s *. 1e9 /. float_of_int events in
  Printf.printf "counter: %d adds in %.2f s (%.0f ns/add), %d buckets\n"
    events add_s add_ns (Sketch.Counter.buckets counter);
  Bench_util.metric "counter_add_ns" add_ns;

  (* ---- memory: sketches vs the materialised relation ---- *)
  Bench_util.subsection "memory footprint";
  let relation =
    let r = ref (Relation.empty ~arity:2) in
    iter_stream (fun s ->
        r := Relation.add (Sensors.tuple_of s) ~texp:(texp_of s) !r);
    !r
  in
  let relation_bytes = heap_bytes relation in
  let counter_bytes = Sketch.Counter.memory_bytes counter in
  let sample_bytes = Sketch.Sample.memory_bytes sample in
  let spread_bytes = Expirel_paper.Spread.memory_bytes spread in
  let ratio = float_of_int relation_bytes /. float_of_int (max 1 counter_bytes) in
  Bench_util.table
    ~headers:[ "structure"; "bytes"; "vs relation" ]
    [ [ "materialised relation"; string_of_int relation_bytes; "1x" ];
      [ Printf.sprintf "counter (eps=%g)" epsilon;
        string_of_int counter_bytes;
        Printf.sprintf "%.0fx smaller" ratio ];
      [ Printf.sprintf "sample (k=%d)" sample_k;
        string_of_int sample_bytes;
        Printf.sprintf "%.0fx smaller"
          (float_of_int relation_bytes /. float_of_int (max 1 sample_bytes)) ];
      [ Printf.sprintf "spread (eps=%g)" epsilon;
        string_of_int spread_bytes;
        Printf.sprintf "%.0fx smaller"
          (float_of_int relation_bytes /. float_of_int (max 1 spread_bytes)) ]
    ];
  Bench_util.metric_int "relation_memory_bytes" relation_bytes;
  Bench_util.metric_int "counter_memory_bytes" counter_bytes;
  Bench_util.metric_int "sample_memory_bytes" sample_bytes;
  Bench_util.metric_int "spread_memory_bytes" spread_bytes;
  Bench_util.metric "memory_ratio" ratio;

  (* ---- accuracy: estimate vs exact live count ---- *)
  Bench_util.subsection "counter accuracy at several query times";
  let exact = exact_live_counts () in
  let max_rel_error = ref 0. in
  let rows =
    List.mapi
      (fun i tau ->
        let { Sketch.Counter.estimate; within; _ } =
          Sketch.Counter.query counter ~tau
        in
        let ex = float_of_int exact.(i) in
        let rel = Float.abs (estimate -. ex) /. Float.max 1. ex in
        max_rel_error := Float.max !max_rel_error rel;
        [ Time.to_string tau;
          string_of_int exact.(i);
          Printf.sprintf "%.0f" estimate;
          Printf.sprintf "%.1f" within;
          Printf.sprintf "%.5f" rel ])
      taus
  in
  Bench_util.table
    ~headers:[ "tau"; "exact live"; "estimate"; "within"; "rel error" ]
    rows;
  Printf.printf "max relative error %.5f (advertised eps %g)\n" !max_rel_error
    epsilon;
  Bench_util.metric "measured_rel_error_max" !max_rel_error;
  Bench_util.metric "epsilon" epsilon;

  let queries = 1_000 in
  let (), query_s =
    Bench_util.time_it (fun () ->
        for i = 1 to queries do
          ignore
            (Sketch.Counter.query counter
               ~tau:(Time.of_int (i * horizon / queries)))
        done)
  in
  let query_us = query_s *. 1e6 /. float_of_int queries in
  Printf.printf "counter query: %.1f us\n" query_us;
  Bench_util.metric "counter_query_us" query_us;

  (* ---- 3-way merge at full scale, in process ---- *)
  Bench_util.subsection "3-shard merge path (in process, full scale)";
  let shards = Array.init 3 (fun _ -> Sketch.Counter.create ~epsilon) in
  iter_stream (fun s ->
      Sketch.Counter.add shards.(s.Sensors.sensor mod 3) ~texp:(texp_of s));
  let payload_bytes =
    Array.fold_left
      (fun acc c -> acc + String.length (Sketch.Counter.to_string c))
      0 shards
  in
  let merged =
    Sketch.Counter.merge (Sketch.Counter.merge shards.(0) shards.(1)) shards.(2)
  in
  let merged_max_rel = ref 0. in
  List.iteri
    (fun i tau ->
      let { Sketch.Counter.estimate; _ } = Sketch.Counter.query merged ~tau in
      let ex = float_of_int exact.(i) in
      merged_max_rel :=
        Float.max !merged_max_rel (Float.abs (estimate -. ex) /. Float.max 1. ex))
    taus;
  Printf.printf
    "3 partials: %d wire bytes total; merged max rel error %.5f\n"
    payload_bytes !merged_max_rel;
  Bench_util.metric_int "merge_payload_bytes" payload_bytes;
  Bench_util.metric "merged_rel_error_max" !merged_max_rel;

  (* ---- a real 3-shard cluster over loopback sockets ---- *)
  Bench_util.subsection "3-shard cluster: APPROX_COUNT / SAMPLE / COUNT(*)";
  let no_err = function
    | Wire.Err { message; _ } -> failwith message
    | (r : Wire.response) -> r
  in
  let config =
    { Server.default_config with Server.host = "127.0.0.1"; port = 0 }
  in
  let servers = List.init 3 (fun _ -> Server.create ~config ()) in
  List.iter Server.start servers;
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop servers)
    (fun () ->
      let coord =
        Coordinator.create ~heartbeat_interval:0.
          ~shards:
            (List.map
               (fun s ->
                 { Coordinator.host = "127.0.0.1"; port = Server.port s })
               servers)
          ()
      in
      Fun.protect
        ~finally:(fun () -> Coordinator.close coord)
        (fun () ->
          ignore (no_err (Coordinator.exec coord "CREATE TABLE t (k, v)"));
          let keys = 2_000 in
          let live = ref 0 in
          for k = 1 to keys do
            (* Half the rows die at 50, half at 1000. *)
            let texp = if k mod 2 = 0 then 50 else 1000 in
            if texp > 100 then incr live;
            ignore
              (no_err
                 (Coordinator.exec coord
                    (Printf.sprintf "INSERT INTO t VALUES (%d, %d) EXPIRES %d"
                       k (k * 3) texp)))
          done;
          ignore (no_err (Coordinator.exec coord "ADVANCE TO 100"));
          let timed sql =
            let r, s = Bench_util.time_it (fun () ->
                no_err (Coordinator.exec coord sql))
            in
            (r, s *. 1e3)
          in
          let exact_count, exact_ms = timed "SELECT COUNT(*) FROM t" in
          (match exact_count with
           | Wire.Rows { rows = [ ([ Value.Int n ], _) ]; _ } ->
             if n <> !live then
               failwith
                 (Printf.sprintf "cluster COUNT(*) = %d, expected %d" n !live)
           | _ -> failwith "unexpected COUNT(*) shape");
          let approx, approx_ms =
            timed (Printf.sprintf "SELECT APPROX_COUNT(%g) FROM t" epsilon)
          in
          let approx_err =
            match approx with
            | Wire.Rows { rows = [ ([ Value.Int est; Value.Float within ], _) ]; _ }
              ->
              let err = Float.abs (float_of_int (est - !live)) in
              if err > within then
                failwith
                  (Printf.sprintf
                     "cluster APPROX_COUNT off by %.0f, bound was %.1f" err
                     within);
              err
            | _ -> failwith "unexpected APPROX_COUNT shape"
          in
          let sampled, sample_ms = timed "SELECT SAMPLE(10) FROM t" in
          (match sampled with
           | Wire.Rows { rows; _ } ->
             if List.length rows > 10 then failwith "SAMPLE returned > k rows"
           | _ -> failwith "unexpected SAMPLE shape");
          Bench_util.table
            ~headers:[ "statement"; "latency ms"; "note" ]
            [ [ "COUNT(*)"; Bench_util.f2 exact_ms;
                Printf.sprintf "exact, combined from %d shard partials" 3 ];
              [ Printf.sprintf "APPROX_COUNT(%g)" epsilon;
                Bench_util.f2 approx_ms;
                Printf.sprintf "merged sketch, off by %.0f" approx_err ];
              [ "SAMPLE(10)"; Bench_util.f2 sample_ms; "merged sketch" ] ];
          Bench_util.metric "cluster_exact_count_ms" exact_ms;
          Bench_util.metric "cluster_approx_count_ms" approx_ms;
          Bench_util.metric "cluster_sample_ms" sample_ms;
          Bench_util.metric "cluster_approx_abs_error" approx_err))
