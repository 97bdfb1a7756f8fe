(* The sketch subsystem, from the structures up through SQL.

   What the properties pin:

   - the counter's [within] is a hard bound — |estimate - exact live
     count| <= within on every random workload, at every tau, and the
     bound survives merging and serialisation;
   - the counter's horizon is honest: the answer cannot change before
     it (cacheability of approximate answers);
   - the sample never returns an expired element, never more than [k],
     and with deterministic priorities it is exactly the reference
     "k smallest-priority live elements" — merging is exactly the
     sketch of the concatenated streams;
   - the spread's diameter is within its advertised additive bound;
   - memory stays sublinear on a deterministic large stream;
   - the SQL surface: APPROX_COUNT/SAMPLE through the interpreter
     (including AT and EXPLAIN ANALYZE's sketch annotation), the
     global exact aggregates that no longer require GROUP BY, and the
     refusals (mixed select lists, GROUP BY, views, constraints). *)

open Expirel_core
module Sketch = Expirel_sketch
module Gen = QCheck2.Gen

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

(* ---------- generators ---------- *)

(* Streams live on a short expiration axis so taus collide with bucket
   boundaries and many elements share a texp. *)
let max_texp = 60

let texp_gen : Time.t Gen.t =
  Gen.frequency
    [ 12, Gen.map Time.of_int (Gen.int_range 1 max_texp);
      1, Gen.return Time.Inf ]

let stream_gen : Time.t list Gen.t = Gen.list_size (Gen.int_range 0 300) texp_gen

let tau_gen : Time.t Gen.t = Gen.map Time.of_int (Gen.int_range 0 (max_texp + 2))

let epsilon_gen : float Gen.t =
  Gen.oneofl [ 0.01; 0.05; 0.1; 0.3; 0.5 ]

let exact_live tau stream =
  List.length (List.filter (fun texp -> Time.(texp > tau)) stream)

let counter_of ~epsilon stream =
  let c = Sketch.Counter.create ~epsilon in
  List.iter (fun texp -> Sketch.Counter.add c ~texp) stream;
  c

(* ---------- counter ---------- *)

let within_bound name c stream tau =
  let { Sketch.Counter.estimate; within; _ } = Sketch.Counter.query c ~tau in
  let exact = float_of_int (exact_live tau stream) in
  if Float.abs (estimate -. exact) > within then
    QCheck2.Test.fail_reportf
      "%s: estimate %.1f, exact %.0f, within %.1f at tau %s" name estimate
      exact within (Time.to_string tau)
  else true

let counter_hard_bound =
  Generators.qtest "counter: |estimate - exact| <= within, always"
    (Gen.triple epsilon_gen stream_gen tau_gen)
    (fun (epsilon, stream, tau) ->
      within_bound "plain" (counter_of ~epsilon stream) stream tau)

let counter_merge_bound =
  Generators.qtest "counter: merge keeps the bound over concatenation"
    (Gen.quad epsilon_gen stream_gen stream_gen tau_gen)
    (fun (epsilon, s1, s2, tau) ->
      let merged =
        Sketch.Counter.merge (counter_of ~epsilon s1) (counter_of ~epsilon s2)
      in
      within_bound "merged" merged (s1 @ s2) tau)

let counter_codec_bound =
  Generators.qtest "counter: serialisation round-trips the answer"
    (Gen.triple epsilon_gen stream_gen tau_gen)
    (fun (epsilon, stream, tau) ->
      let c = counter_of ~epsilon stream in
      let c' = ok_or_fail (Sketch.Counter.of_string (Sketch.Counter.to_string c)) in
      let a = Sketch.Counter.query c ~tau and b = Sketch.Counter.query c' ~tau in
      a.Sketch.Counter.estimate = b.Sketch.Counter.estimate
      && a.Sketch.Counter.within = b.Sketch.Counter.within
      && Time.equal a.Sketch.Counter.horizon b.Sketch.Counter.horizon)

(* The horizon is the earliest instant strictly after tau at which the
   answer can change: at every tau' in (tau, horizon) the answer is
   identical — an approximate result is cacheable until its texp(e). *)
let counter_horizon =
  Generators.qtest "counter: answer constant until its horizon"
    (Gen.triple epsilon_gen stream_gen tau_gen)
    (fun (epsilon, stream, tau) ->
      let c = counter_of ~epsilon stream in
      let a = Sketch.Counter.query c ~tau in
      match a.Sketch.Counter.horizon with
      | Time.Inf ->
        (* Nothing left to expire: constant forever after. *)
        let b = Sketch.Counter.query c ~tau:(Time.of_int (max_texp + 10)) in
        b.Sketch.Counter.estimate = a.Sketch.Counter.estimate
      | Time.Fin h ->
        Time.(Time.of_int h > tau)
        && List.for_all
             (fun tau' ->
               let b = Sketch.Counter.query c ~tau:(Time.of_int tau') in
               b.Sketch.Counter.estimate = a.Sketch.Counter.estimate)
             (let t0 = match tau with Time.Fin n -> n | Time.Inf -> 0 in
              List.init (max 0 (h - t0 - 1)) (fun i -> t0 + 1 + i)))

(* Deterministic scale check: memory is O(eps^-1 log n), not O(n). *)
let test_counter_memory () =
  let c = Sketch.Counter.create ~epsilon:0.01 in
  for i = 1 to 100_000 do
    Sketch.Counter.add c ~texp:(Time.of_int i)
  done;
  let buckets = Sketch.Counter.buckets c in
  Alcotest.(check bool)
    (Printf.sprintf "buckets stay logarithmic (%d)" buckets)
    true (buckets < 2_000);
  Alcotest.(check bool) "under a byte per element" true
    (Sketch.Counter.memory_bytes c < 100_000)

(* ---------- sample ---------- *)

(* Deterministic workloads: each element carries its own priority, so
   the sketch must agree exactly with the reference computation. *)
let prioritised_stream_gen : (int * Time.t * float) list Gen.t =
  Gen.list_size (Gen.int_range 0 120)
    (Gen.map
       (fun ((v, texp), prio) -> (v, texp, prio))
       (Gen.pair (Gen.pair (Gen.int_range 0 30) texp_gen) (Gen.float_bound_exclusive 1.0)))

let sample_of ~k stream =
  let s = Sketch.Sample.create ~k () in
  List.iter
    (fun (v, texp, prio) ->
      Sketch.Sample.add_with_priority s [ Value.int v ] ~texp ~prio)
    stream;
  s

(* The k live elements with the smallest priorities, in priority order. *)
let reference_sample ~k ~tau stream =
  List.filter (fun (_, texp, _) -> Time.(texp > tau)) stream
  |> List.stable_sort (fun (_, _, p) (_, _, q) -> Float.compare p q)
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (v, texp, _) -> ([ Value.int v ], texp))

let sample_matches_reference =
  Generators.qtest "sample: exactly the k smallest-priority live elements"
    (Gen.triple (Gen.int_range 1 8) prioritised_stream_gen tau_gen)
    (fun (k, stream, tau) ->
      Sketch.Sample.query (sample_of ~k stream) ~tau
      = reference_sample ~k ~tau stream)

let sample_liveness =
  Generators.qtest "sample: never an expired element, never more than k"
    (Gen.triple (Gen.int_range 1 8) prioritised_stream_gen tau_gen)
    (fun (k, stream, tau) ->
      let rows = Sketch.Sample.query (sample_of ~k stream) ~tau in
      List.length rows <= k
      && List.for_all (fun (_, texp) -> Time.(texp > tau)) rows)

let sample_merge_exact =
  Generators.qtest "sample: merge == sketch of the concatenated streams"
    (Gen.quad (Gen.int_range 1 8) prioritised_stream_gen prioritised_stream_gen
       tau_gen)
    (fun (k, s1, s2, tau) ->
      let merged = Sketch.Sample.merge (sample_of ~k s1) (sample_of ~k s2) in
      Sketch.Sample.query merged ~tau
      = Sketch.Sample.query (sample_of ~k (s1 @ s2)) ~tau)

let sample_codec =
  Generators.qtest "sample: serialisation round-trips the query"
    (Gen.triple (Gen.int_range 1 8) prioritised_stream_gen tau_gen)
    (fun (k, stream, tau) ->
      let s = sample_of ~k stream in
      let s' = ok_or_fail (Sketch.Sample.of_string (Sketch.Sample.to_string s)) in
      Sketch.Sample.query s ~tau = Sketch.Sample.query s' ~tau)

(* Uniformity, as a deterministic chi-square-ish sanity check: sampling
   1 of 20 equally-live elements over many independent priority draws
   hits every element at a frequency near 1/20. *)
let test_sample_uniformity () =
  let n = 20 and draws = 4_000 in
  let hits = Array.make n 0 in
  for seed = 1 to draws do
    let s = Sketch.Sample.create ~seed ~k:1 () in
    for v = 0 to n - 1 do
      Sketch.Sample.add s [ Value.int v ] ~texp:(Time.of_int 10)
    done;
    match Sketch.Sample.query s ~tau:(Time.of_int 5) with
    | [ ([ Value.Int v ], _) ] -> hits.(v) <- hits.(v) + 1
    | _ -> Alcotest.fail "expected a singleton sample"
  done;
  let expected = float_of_int draws /. float_of_int n in
  Array.iteri
    (fun v h ->
      let dev = Float.abs (float_of_int h -. expected) /. expected in
      Alcotest.(check bool)
        (Printf.sprintf "element %d drawn uniformly (%d times)" v h)
        true (dev < 0.5))
    hits

(* ---------- spread ---------- *)

let valued_stream_gen : (float * Time.t) list Gen.t =
  Gen.list_size (Gen.int_range 0 200)
    (Gen.pair (Gen.map float_of_int (Gen.int_range (-50) 50)) texp_gen)

let spread_bound =
  Generators.qtest "spread: diameter within the advertised additive bound"
    (Gen.triple epsilon_gen valued_stream_gen tau_gen)
    (fun (epsilon, stream, tau) ->
      let s = Expirel_paper.Spread.create ~epsilon in
      List.iter (fun (v, texp) -> Expirel_paper.Spread.add s v ~texp) stream;
      let live = List.filter (fun (_, texp) -> Time.(texp > tau)) stream in
      match Expirel_paper.Spread.query s ~tau with
      | None -> live = []
      | Some { Expirel_paper.Spread.diameter; within; _ } ->
        (match live with
         | [] -> false
         | (v0, _) :: _ ->
           let lo, hi =
             List.fold_left
               (fun (lo, hi) (v, _) -> (Float.min lo v, Float.max hi v))
               (v0, v0) live
           in
           Float.abs (diameter -. (hi -. lo)) <= within))

(* ---------- payloads ---------- *)

(* Every strict prefix of a payload is an [Error], never a smaller
   sketch: a shard reply cut short must not merge as a partial. *)
let prefixes_error of_string payload =
  List.for_all
    (fun n -> Result.is_error (of_string (String.sub payload 0 n)))
    (List.init (String.length payload) Fun.id)

let payload_prefixes_error =
  Generators.qtest "payloads: every strict prefix of a sketch decodes to Error"
    ~count:100
    (Gen.quad epsilon_gen stream_gen prioritised_stream_gen valued_stream_gen)
    (fun (epsilon, stream, prioritised, valued) ->
      let spread = Expirel_paper.Spread.create ~epsilon in
      List.iter (fun (v, texp) -> Expirel_paper.Spread.add spread v ~texp) valued;
      prefixes_error Sketch.Counter.of_string
        (Sketch.Counter.to_string (counter_of ~epsilon stream))
      && prefixes_error Sketch.Sample.of_string
           (Sketch.Sample.to_string (sample_of ~k:3 prioritised))
      && prefixes_error Expirel_paper.Spread.of_string (Expirel_paper.Spread.to_string spread))

(* A merge's cost follows the entries, not k: two samples with a k no
   memory could hold merge into one keeping every entry. *)
let test_huge_k_merge () =
  let k = 1 lsl 40 in
  let a = sample_of ~k [ (1, Time.of_int 5, 0.5); (2, Time.Inf, 0.25) ] in
  let b = sample_of ~k [ (3, Time.of_int 9, 0.75) ] in
  let merged = Sketch.Sample.merge a b in
  Alcotest.(check int) "every entry kept" 3 (Sketch.Sample.size merged);
  Alcotest.(check int) "every entry answers" 3
    (List.length (Sketch.Sample.query merged ~tau:(Time.of_int 0)))

(* ---------- the SQL surface ---------- *)

let exec t sql =
  match Expirel_sqlx.Interp.exec_sql t sql with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "%S failed: %s" sql msg

let expect_error t sql =
  match Expirel_sqlx.Interp.exec_sql t sql with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected %S to fail" sql

let listing = function
  | Expirel_sqlx.Interp.Rows { listing; _ } -> Lazy.force listing
  | Expirel_sqlx.Interp.Msg m -> Alcotest.failf "expected rows, got %S" m

let setup_sensor_table ?(rows = 500) () =
  let t = Expirel_sqlx.Interp.create () in
  ignore (exec t "CREATE TABLE s (id, v)");
  for i = 1 to rows do
    (* Expirations spread over (0, 2*rows]: at time [rows], half live. *)
    ignore
      (exec t
         (Printf.sprintf "INSERT INTO s VALUES (%d, %d) EXPIRES %d" i (i * 2)
            (2 * ((i * 7919) mod rows + 1))))
  done;
  t

let approx_row t sql =
  match listing (exec t sql) with
  | [ (row, _) ] ->
    (match Tuple.to_list row with
     | [ Value.Int est; Value.Float within ] -> (est, within)
     | _ -> Alcotest.failf "%S: unexpected row shape" sql)
  | rows -> Alcotest.failf "%S: expected one row, got %d" sql (List.length rows)

let test_sql_approx_count () =
  let t = setup_sensor_table () in
  let exact () =
    match listing (exec t "SELECT COUNT(*) FROM s") with
    | [ (row, _) ] ->
      (match Tuple.to_list row with
       | [ Value.Int n ] -> n
       | _ -> Alcotest.fail "unexpected COUNT shape")
    | [] -> 0
    | _ -> Alcotest.fail "unexpected COUNT listing"
  in
  let check_at label =
    let est, within = approx_row t "SELECT APPROX_COUNT(0.05) FROM s" in
    let ex = exact () in
    Alcotest.(check bool)
      (Printf.sprintf "%s: |%d - %d| <= %.1f" label est ex within)
      true
      (Float.abs (float_of_int (est - ex)) <= within);
    Alcotest.(check bool)
      (Printf.sprintf "%s: bound respects epsilon" label)
      true
      (within <= (0.05 *. float_of_int ex) +. 1.)
  in
  check_at "fresh";
  ignore (exec t "ADVANCE TO 250");
  check_at "half expired";
  ignore (exec t "ADVANCE TO 995");
  check_at "nearly drained";
  (* AT: the sketch is built at the future tau, same contract. *)
  let est_now, _ = approx_row t "SELECT APPROX_COUNT(0.05) FROM s" in
  let est_at, _ = approx_row t "SELECT APPROX_COUNT(0.05) FROM s AT 2000" in
  Alcotest.(check int) "everything dead at 2000" 0 est_at;
  Alcotest.(check bool) "and still live now" true (est_now > 0)

let test_sql_sample () =
  let t = setup_sensor_table () in
  ignore (exec t "ADVANCE TO 250");
  let rows = listing (exec t "SELECT SAMPLE(20) FROM s") in
  Alcotest.(check int) "k rows" 20 (List.length rows);
  List.iter
    (fun (row, texp) ->
      Alcotest.(check bool) "sampled row is live" true
        Time.(texp > Time.of_int 250);
      match Tuple.to_list row with
      | [ Value.Int id; Value.Int v ] ->
        Alcotest.(check bool) "sampled row was inserted" true (v = 2 * id)
      | _ -> Alcotest.fail "unexpected sampled row shape")
    rows;
  (* texp(e): the answer's own expiration is the soonest sampled texp. *)
  (match exec t "SELECT SAMPLE(20) FROM s" with
   | Expirel_sqlx.Interp.Rows { texp_e; listing; _ } ->
     Alcotest.(check bool) "texp(e) = min sampled texp" true
       (Time.equal texp_e
          (Time.min_list (List.map snd (Lazy.force listing))))
   | _ -> Alcotest.fail "expected rows")

let test_sql_global_aggregates () =
  let t = Expirel_sqlx.Interp.create () in
  ignore (exec t "CREATE TABLE g (k, v)");
  List.iter
    (fun sql -> ignore (exec t sql))
    [ "INSERT INTO g VALUES (1, 10) EXPIRES 10";
      "INSERT INTO g VALUES (2, 30) EXPIRES 20";
      "INSERT INTO g VALUES (3, 20) EXPIRES 30" ];
  let single sql =
    match listing (exec t sql) with
    | [ (row, _) ] -> Tuple.to_list row
    | rows -> Alcotest.failf "%S: expected one row, got %d" sql (List.length rows)
  in
  Alcotest.(check bool) "COUNT(*)" true
    (single "SELECT COUNT(*) FROM g" = [ Value.int 3 ]);
  Alcotest.(check bool) "SUM" true
    (single "SELECT SUM(v) FROM g" = [ Value.int 60 ]);
  Alcotest.(check bool) "MIN" true
    (single "SELECT MIN(v) FROM g" = [ Value.int 10 ]);
  Alcotest.(check bool) "MAX" true
    (single "SELECT MAX(v) FROM g" = [ Value.int 30 ]);
  Alcotest.(check bool) "AVG" true
    (single "SELECT AVG(v) FROM g" = [ Value.Float 20. ]);
  ignore (exec t "ADVANCE TO 10");
  Alcotest.(check bool) "COUNT after expiry" true
    (single "SELECT COUNT(*) FROM g" = [ Value.int 2 ]);
  Alcotest.(check bool) "MAX with WHERE" true
    (single "SELECT MAX(v) FROM g WHERE k = 3" = [ Value.int 20 ])

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_sql_explain_and_obs () =
  Sketch.Observatory.reset ();
  let t = setup_sensor_table ~rows:50 () in
  (match exec t "EXPLAIN SELECT APPROX_COUNT(0.1) FROM s" with
   | Expirel_sqlx.Interp.Msg m ->
     Alcotest.(check bool) "EXPLAIN shows the sketch operator" true
       (string_contains m "sketch-count")
   | _ -> Alcotest.fail "expected an explain text");
  (match exec t "EXPLAIN ANALYZE SELECT APPROX_COUNT(0.1) FROM s" with
   | Expirel_sqlx.Interp.Msg m ->
     Alcotest.(check bool) "EXPLAIN ANALYZE reports sketch bytes" true
       (string_contains m "sketch=");
     Alcotest.(check bool) "and the operator" true
       (string_contains m "sketch-count")
   | _ -> Alcotest.fail "expected an explain analyze text");
  ignore (exec t "SELECT SAMPLE(3) FROM s");
  let snapshot = Sketch.Observatory.snapshot () in
  let find name =
    match List.assoc_opt name snapshot with
    | Some v -> v
    | None ->
      Alcotest.failf "no %S gauge in %s" name
        (String.concat ", " (List.map fst snapshot))
  in
  let bytes, estimate = find "approx_count(0.1)" in
  Alcotest.(check bool) "counter gauge has bytes" true (bytes > 0);
  Alcotest.(check bool) "counter gauge has an estimate" true (estimate > 0.);
  let sample_bytes, _ = find "sample(3)" in
  Alcotest.(check bool) "sample gauge has bytes" true (sample_bytes > 0)

let test_sql_refusals () =
  let t = setup_sensor_table ~rows:10 () in
  expect_error t "SELECT APPROX_COUNT(0.1), id FROM s";
  expect_error t "SELECT APPROX_COUNT(0.1), SAMPLE(2) FROM s";
  expect_error t "SELECT APPROX_COUNT(0.1) FROM s GROUP BY id";
  expect_error t "SELECT APPROX_COUNT(0.0) FROM s";
  expect_error t "SELECT APPROX_COUNT(1.5) FROM s";
  expect_error t "SELECT SAMPLE(0) FROM s";
  expect_error t "CREATE VIEW v AS SELECT APPROX_COUNT(0.1) FROM s";
  expect_error t "CREATE CONSTRAINT c ON SELECT APPROX_COUNT(0.1) FROM s MIN 2";
  expect_error t "SELECT APPROX_COUNT(0.1) FROM s UNION SELECT id FROM s"

let suite =
  [ counter_hard_bound;
    counter_merge_bound;
    counter_codec_bound;
    counter_horizon;
    Alcotest.test_case "counter memory stays sublinear" `Quick
      test_counter_memory;
    sample_matches_reference;
    sample_liveness;
    sample_merge_exact;
    sample_codec;
    Alcotest.test_case "singleton sample is uniform" `Quick
      test_sample_uniformity;
    spread_bound;
    payload_prefixes_error;
    Alcotest.test_case "sample: a huge k merges in O(entries)" `Quick test_huge_k_merge;
    Alcotest.test_case "SQL: APPROX_COUNT within bound" `Quick
      test_sql_approx_count;
    Alcotest.test_case "SQL: SAMPLE is live and honest" `Quick test_sql_sample;
    Alcotest.test_case "SQL: global aggregates without GROUP BY" `Quick
      test_sql_global_aggregates;
    Alcotest.test_case "SQL: EXPLAIN and observability gauges" `Quick
      test_sql_explain_and_obs;
    Alcotest.test_case "SQL: refusals" `Quick test_sql_refusals ]
