(* The observability substrate: thread-safe instruments, the metric
   registry, per-request traces, the slow-query ring and the Prometheus
   renderer — including regressions for the two metrics bugs this layer
   replaced (mutex leaked on a raising critical section; missing 500 ms
   latency bucket). *)

open Expirel_obs

(* ---------- instruments ---------- *)

let test_counter () =
  let c = Instrument.Counter.create () in
  Instrument.Counter.incr c;
  Instrument.Counter.add c 41;
  Alcotest.(check int) "value" 42 (Instrument.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Counter.add: negative increment") (fun () ->
      Instrument.Counter.add c (-1));
  Alcotest.(check int) "unchanged after reject" 42 (Instrument.Counter.value c)

let test_gauge () =
  let g = Instrument.Gauge.create () in
  Instrument.Gauge.set g 7;
  Instrument.Gauge.add g (-10);
  Alcotest.(check int) "negative allowed" (-3) (Instrument.Gauge.value g)

(* Regression: the original server histogram jumped from 250 ms straight
   to 1 s, so every request between 250 ms and 1 s was reported as
   "<= 1s".  The default bounds must include 500 ms, and an observation
   between 250 ms and 500 ms must land there, not in the 1 s bucket. *)
let test_latency_bucket_gap () =
  let bounds = Instrument.Histogram.default_latency_bounds_us in
  Alcotest.(check bool) "500ms bound present" true
    (Array.exists (fun b -> b = 500_000) bounds);
  let sorted = Array.for_all (fun i -> i = 0 || bounds.(i - 1) < bounds.(i))
      (Array.init (Array.length bounds) Fun.id)
  in
  Alcotest.(check bool) "bounds strictly increasing" true sorted;
  let h = Instrument.Histogram.create () in
  Instrument.Histogram.observe h 400_000;
  Instrument.Histogram.observe h 600_000;
  let s = Instrument.Histogram.snapshot h in
  let count_at bound =
    let i = ref (-1) in
    Array.iteri (fun j b -> if b = bound then i := j) s.bounds;
    s.counts.(!i)
  in
  Alcotest.(check int) "400ms lands in the 500ms bucket" 1 (count_at 500_000);
  Alcotest.(check int) "600ms lands in the 1s bucket" 1 (count_at 1_000_000)

let test_histogram_edges () =
  let h = Instrument.Histogram.create ~bounds:[| 10; 20 |] () in
  List.iter (Instrument.Histogram.observe h) [ 10; 11; 21; max_int ];
  let s = Instrument.Histogram.snapshot h in
  Alcotest.(check (list int)) "bucketing at the bound is inclusive"
    [ 1; 1; 2 ] (Array.to_list s.counts);
  Alcotest.(check int) "last bound is the catch-all" max_int
    s.bounds.(Array.length s.bounds - 1);
  Alcotest.(check int) "count" 4 s.count;
  Alcotest.check_raises "unsorted bounds rejected"
    (Invalid_argument "Histogram.create: bounds not strictly increasing")
    (fun () -> ignore (Instrument.Histogram.create ~bounds:[| 5; 5 |] ()))

(* Regression for the Metrics.locked bug: an exception inside a critical
   section (here, Family arity validation) must release the mutex, so
   the next well-formed call succeeds instead of deadlocking. *)
let test_family_raise_no_deadlock () =
  let fam =
    Instrument.Family.create ~labels:[ "mode" ]
      ~make:Instrument.Counter.create
  in
  (try ignore (Instrument.Family.labelled fam [ "a"; "b" ])
   with Invalid_argument _ -> ());
  (* Run the retry on another thread with a watchdog: if the mutex
     leaked, this thread blocks forever; we fail instead of hanging the
     suite. *)
  let done_ = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        Instrument.Counter.incr (Instrument.Family.labelled fam [ "eager" ]);
        Atomic.set done_ true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get done_)) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "family usable after raising call" true
    (Atomic.get done_);
  Thread.join t;
  Alcotest.(check int) "counter recorded" 1
    (Instrument.Counter.value (Instrument.Family.labelled fam [ "eager" ]))

let test_family_fold_sorted () =
  let fam =
    Instrument.Family.create ~labels:[ "op" ] ~make:Instrument.Counter.create
  in
  List.iter
    (fun v -> Instrument.Counter.incr (Instrument.Family.labelled fam [ v ]))
    [ "join"; "base"; "select" ];
  let order =
    Instrument.Family.fold fam ~init:[] ~f:(fun bindings _ acc ->
        acc @ [ List.assoc "op" bindings ])
  in
  Alcotest.(check (list string)) "fold sorted by label values"
    [ "base"; "join"; "select" ] order

(* 8 threads × 10_000 operations against one counter, one gauge and one
   histogram, with a 9th thread snapshotting throughout.  Totals must be
   exact and every snapshot internally consistent. *)
let test_hammer () =
  let threads = 8 and per_thread = 10_000 in
  let c = Instrument.Counter.create () in
  let g = Instrument.Gauge.create () in
  let h = Instrument.Histogram.create ~bounds:[| 4; 16; 64 |] () in
  let stop = Atomic.make false in
  let inconsistent = Atomic.make 0 in
  let reader =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let s = Instrument.Histogram.snapshot h in
          if Array.fold_left ( + ) 0 s.counts <> s.count then
            Atomic.incr inconsistent;
          Thread.yield ()
        done)
      ()
  in
  let workers =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            for j = 1 to per_thread do
              Instrument.Counter.incr c;
              Instrument.Gauge.add g (if j mod 2 = 0 then 1 else -1);
              Instrument.Histogram.observe h ((i + j) mod 100)
            done)
          ())
  in
  List.iter Thread.join workers;
  Atomic.set stop true;
  Thread.join reader;
  Alcotest.(check int) "no torn snapshots" 0 (Atomic.get inconsistent);
  Alcotest.(check int) "counter exact" (threads * per_thread)
    (Instrument.Counter.value c);
  Alcotest.(check int) "gauge exact" 0 (Instrument.Gauge.value g);
  let s = Instrument.Histogram.snapshot h in
  Alcotest.(check int) "histogram count exact" (threads * per_thread) s.count;
  Alcotest.(check int) "histogram sum exact"
    (List.init threads (fun i ->
         List.init per_thread (fun j -> (i + j + 1) mod 100)
         |> List.fold_left ( + ) 0)
     |> List.fold_left ( + ) 0)
    s.sum

(* ---------- registry ---------- *)

let test_registry_duplicate () =
  let reg = Registry.create () in
  ignore (Registry.counter reg ~name:"dup" ~help:"");
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Registry: duplicate metric name dup") (fun () ->
      ignore (Registry.gauge reg ~name:"dup" ~help:""))

(* A raising polled callback is skipped — the metric reports no samples
   and the registry stays collectable, collection after collection. *)
let test_registry_raising_callback () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~name:"good" ~help:"" in
  Instrument.Counter.add c 3;
  Registry.gauge_fun reg ~name:"bad" ~help:"" (fun () -> raise Not_found);
  let healthy = ref 0.0 in
  Registry.gauge_fun reg ~name:"healthy" ~help:"" (fun () -> !healthy);
  for i = 1 to 3 do
    healthy := float_of_int i;
    let metrics = Registry.collect reg in
    let find name = List.find (fun (m : Registry.metric) -> m.name = name) metrics in
    Alcotest.(check int) "raising metric has no samples" 0
      (List.length (find "bad").samples);
    (match (find "good").samples with
     | [ ([], Registry.Counter_sample 3) ] -> ()
     | _ -> Alcotest.fail "stored counter sampled wrong");
    match (find "healthy").samples with
    | [ ([], Registry.Gauge_sample v) ] ->
      Alcotest.(check (float 0.0)) "later callbacks still polled"
        (float_of_int i) v
    | _ -> Alcotest.fail "healthy gauge sampled wrong"
  done

let test_registry_order () =
  let reg = Registry.create () in
  ignore (Registry.counter reg ~name:"first" ~help:"");
  ignore (Registry.gauge reg ~name:"second" ~help:"");
  ignore (Registry.histogram reg ~name:"third" ~help:"" ());
  Alcotest.(check (list string)) "collect in registration order"
    [ "first"; "second"; "third" ]
    (List.map (fun (m : Registry.metric) -> m.name) (Registry.collect reg))

(* ---------- traces ---------- *)

let test_trace_spans () =
  let tr = Trace.create () in
  let result =
    Trace.span (Some tr) (Trace.name "outer") (fun () ->
        Trace.span (Some tr) (Trace.name "inner") (fun () -> 21) * 2)
  in
  Alcotest.(check int) "value passed through" 42 result;
  (match Trace.spans tr with
   | [ inner; outer ] ->
     Alcotest.(check string) "child recorded first" "inner" inner.Trace.name;
     Alcotest.(check string) "parent second" "outer" outer.Trace.name;
     Alcotest.(check bool) "parent covers child" true
       (outer.Trace.start_us <= inner.Trace.start_us
        && outer.Trace.duration_us >= inner.Trace.duration_us)
   | spans ->
     Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  Alcotest.(check int) "span None is a passthrough" 7
    (Trace.span None (Trace.name "ignored") (fun () -> 7))

let test_trace_records_on_raise () =
  let tr = Trace.create () in
  (try Trace.span (Some tr) (Trace.name "boom") (fun () -> failwith "x")
   with Failure _ -> ());
  match Trace.spans tr with
  | [ { Trace.name = "boom"; _ } ] -> ()
  | _ -> Alcotest.fail "raising span not recorded"

(* Span ids are 1-based in entry order; parents link children to the
   enclosing span, labels stick to the innermost open one, and an
   out-of-band [record] parents under whatever is open. *)
let test_trace_ids_parents_labels () =
  let tr = Trace.create () in
  Trace.span (Some tr) (Trace.name "outer") (fun () ->
      Trace.label (Some tr) (Trace.name "who") "outer";
      Trace.span (Some tr) (Trace.name "inner") (fun () ->
          Trace.label (Some tr) (Trace.name "rows") "42";
          Trace.label (Some tr) (Trace.name "mode") "eager");
      Trace.record tr ~name:(Trace.name "timed-elsewhere") ~start_us:1 ~duration_us:2);
  match Trace.spans tr with
  | [ inner; recorded; outer ] ->
    Alcotest.(check string) "inner first" "inner" inner.Trace.name;
    Alcotest.(check string) "recorded second" "timed-elsewhere"
      recorded.Trace.name;
    Alcotest.(check string) "outer last" "outer" outer.Trace.name;
    Alcotest.(check int) "outer opened first" 1 outer.Trace.id;
    Alcotest.(check int) "inner opened second" 2 inner.Trace.id;
    Alcotest.(check int) "record gets the next id" 3 recorded.Trace.id;
    Alcotest.(check (option int)) "inner nests under outer" (Some 1)
      inner.Trace.parent;
    Alcotest.(check (option int)) "record nests under outer" (Some 1)
      recorded.Trace.parent;
    Alcotest.(check (option int)) "outer is top-level" None outer.Trace.parent;
    Alcotest.(check (list (pair string string))) "labels in call order"
      [ ("rows", "42"); ("mode", "eager") ]
      inner.Trace.labels;
    Alcotest.(check (list (pair string string))) "outer kept its own label"
      [ ("who", "outer") ]
      outer.Trace.labels
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

(* Fresh trace ids are fixed-width: the counter passing 0xf and 0xff,
   or a large pid, does not change an id's length, so a traced
   request's encoded size does not depend on them. *)
let test_trace_id_fixed_width () =
  let width = String.length (Trace.trace_id (Trace.create ())) in
  List.iter
    (fun (pid, seq) ->
      Alcotest.(check int)
        (Printf.sprintf "pid %d, counter %#x" pid seq)
        width
        (String.length
           (Trace.format_trace_id ~us:1_760_000_000_000_000L ~pid ~seq)))
    [ (1, 0); (1, 0xf); (1, 0x10); (1, 0xff); (1, 0x100); (4_194_304, 0xfff);
      (4_194_304, 1 lsl 40) ];
  let ids = List.init 300 (fun _ -> Trace.trace_id (Trace.create ())) in
  List.iter
    (fun id -> Alcotest.(check int) ("length of " ^ id) width (String.length id))
    ids;
  Alcotest.(check int) "fresh ids differ" 300
    (List.length (List.sort_uniq String.compare ids))

(* A trace created from a remote context inherits the id and parents its
   top-level spans under the caller's span — the propagation invariant
   the wire relies on. *)
let test_trace_inherited_context () =
  let tr = Trace.create ~trace_id:"abc-1" ~parent_span:7 () in
  Alcotest.(check string) "id inherited" "abc-1" (Trace.trace_id tr);
  Alcotest.(check (option int)) "root parent" (Some 7) (Trace.parent_span tr);
  Alcotest.(check (option int)) "current parent with nothing open" (Some 7)
    (Trace.current_parent tr);
  Trace.span (Some tr) (Trace.name "top") (fun () ->
      Alcotest.(check (option int)) "current parent inside a span" (Some 1)
        (Trace.current_parent tr));
  match Trace.spans tr with
  | [ top ] ->
    Alcotest.(check (option int)) "top-level span under remote parent"
      (Some 7) top.Trace.parent
  | _ -> Alcotest.fail "expected one span"

let mk_span ?parent ~id ~dur name =
  { Trace.id; parent; name; start_us = 0; duration_us = dur; labels = [] }

(* self time = duration minus direct children only (grandchildren are
   already inside their parent), clamped at zero for clock jitter. *)
let test_self_us () =
  let spans =
    [ mk_span ~id:1 ~dur:100 "root";
      mk_span ~parent:1 ~id:2 ~dur:30 "a";
      mk_span ~parent:1 ~id:3 ~dur:20 "b";
      mk_span ~parent:2 ~id:4 ~dur:25 "a-child" ]
  in
  let self id =
    Trace.self_us spans (List.find (fun s -> s.Trace.id = id) spans)
  in
  Alcotest.(check int) "root excludes direct children only" 50 (self 1);
  Alcotest.(check int) "a excludes its child" 5 (self 2);
  Alcotest.(check int) "leaf keeps its duration" 20 (self 3);
  let jitter =
    [ mk_span ~id:1 ~dur:10 "p"; mk_span ~parent:1 ~id:2 ~dur:15 "c" ]
  in
  Alcotest.(check int) "clamped at zero" 0
    (Trace.self_us jitter (List.hd jitter))

(* The recorder's semantics as a list-based model — a stack of open
   frames and a list of finished spans, the way traces were recorded
   before the flat log: ids in entry order, the parent the innermost
   open frame (or the remote parent), labels on the innermost open
   frame in call order, a raising span still recorded. *)
let model_spans ?parent_span program =
  let open Generators in
  let next = ref 0 and frames = ref [] and recorded = ref [] in
  let current () =
    match !frames with (id, _) :: _ -> Some id | [] -> parent_span
  in
  let rec run steps = List.iter step steps
  and step = function
    | Open (n, body) -> span n (fun () -> run body)
    | Raise (n, body) -> (
      try
        span n (fun () ->
            run body;
            raise Exit)
      with Exit -> ())
    | Record (n, start_us, duration_us) ->
      incr next;
      recorded := (!next, current (), n, Some (start_us, duration_us), []) :: !recorded
    | Label (k, v) -> label k v
    | Count (k, c) -> label k (string_of_int c)
    | Spin _ -> ()
  and label k v =
    match !frames with (_, labels) :: _ -> labels := (k, v) :: !labels | [] -> ()
  and span n f =
    incr next;
    let id = !next and parent = current () and labels = ref [] in
    frames := (id, labels) :: !frames;
    Fun.protect f ~finally:(fun () ->
        frames := List.tl !frames;
        recorded := (id, parent, n, None, List.rev !labels) :: !recorded)
  in
  run program;
  List.rev !recorded

let gen_traced_program =
  QCheck2.Gen.(pair (oneofl [ None; Some 0; Some 7 ]) Generators.span_program)

let prop_recorder_matches_model =
  Generators.qtest "random span programs: Trace.spans = the list model" ~count:300
    gen_traced_program (fun (parent_span, program) ->
      let tr = Trace.create ?parent_span () in
      Generators.run_span_program tr program;
      let got = Trace.spans tr and want = model_spans ?parent_span program in
      List.length got = List.length want
      && List.for_all2
           (fun (s : Trace.span) (id, parent, name, times, labels) ->
             s.id = id && s.parent = parent && s.name = name && s.labels = labels
             && s.start_us >= 0 && s.duration_us >= 0
             &&
             match times with
             | Some (start_us, duration_us) ->
               s.start_us = start_us && s.duration_us = duration_us
             | None -> true)
           got want)

(* ---------- trace store ---------- *)

(* The ring keeps the last [capacity] traces whole across wrap-around:
   entries copied in with [record] come back equal, and traces stored
   with [finish] come back with their id, node, name, origin and
   spans. *)
let prop_ring_wraps =
  let open QCheck2.Gen in
  let stored =
    map3
      (fun finish (parent_span, program) (node, name) -> (finish, parent_span, program, node, name))
      bool gen_traced_program
      (pair (oneofl [ "primary"; "shard-1"; "" ]) (oneofl [ "SELECT 1"; "replicate r"; "x" ]))
  in
  Generators.qtest "trace ring returns equal entries after wrap-around" ~count:100
    (pair (int_range 1 6) (list_size (int_range 0 20) stored))
    (fun (capacity, items) ->
      let st = Trace_store.create ~capacity () in
      let expected =
        List.map
          (fun (finish, parent_span, program, node, name) ->
            let tr = Trace.create ?parent_span () in
            Generators.run_span_program tr program;
            let e =
              { Trace_store.node; trace_id = Trace.trace_id tr; name;
                started_at = Trace.started_at tr; total_us = List.length program;
                spans = Trace.spans tr }
            in
            if finish then Trace_store.finish st ~node ~name tr else Trace_store.record st e;
            (finish, e))
          items
      in
      let kept = List.filteri (fun i _ -> i >= List.length items - capacity) expected in
      let got = Trace_store.recent st max_int in
      List.length got = List.length kept
      && List.for_all2
           (fun (g : Trace_store.entry) (finish, (e : Trace_store.entry)) ->
             if finish then
               g.node = e.node && g.trace_id = e.trace_id && g.name = e.name
               && g.started_at = e.started_at && g.spans = e.spans && g.total_us >= 0
             else g = e)
           got (List.rev kept))

let store_entry ?(node = "n") ?(trace_id = "t") name =
  { Trace_store.node; trace_id; name; started_at = 0.0; total_us = 1;
    spans = [] }

let test_trace_store_ring () =
  let st = Trace_store.create ~capacity:3 () in
  List.iter
    (fun n -> Trace_store.record st (store_entry n))
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (list string)) "newest first, oldest evicted"
    [ "d"; "c"; "b" ]
    (List.map (fun (e : Trace_store.entry) -> e.name) (Trace_store.recent st 10));
  Alcotest.(check int) "recent clamps n" 2 (List.length (Trace_store.recent st 2));
  Trace_store.record st (store_entry ~trace_id:"x" "e");
  Alcotest.(check (list string)) "by_trace_id filters" [ "e" ]
    (List.map
       (fun (e : Trace_store.entry) -> e.name)
       (Trace_store.by_trace_id st "x"))

let test_trace_store_finish () =
  let st = Trace_store.create () in
  let tr = Trace.create ~trace_id:"shared" () in
  Trace.span (Some tr) (Trace.name "work") (fun () -> ());
  Trace_store.finish st ~node:"primary" ~name:"SELECT 1" tr;
  match Trace_store.recent st 1 with
  | [ e ] ->
    Alcotest.(check string) "node" "primary" e.Trace_store.node;
    Alcotest.(check string) "trace id" "shared" e.Trace_store.trace_id;
    Alcotest.(check string) "name" "SELECT 1" e.Trace_store.name;
    Alcotest.(check int) "one span" 1 (List.length e.Trace_store.spans)
  | _ -> Alcotest.fail "expected one entry"

(* ---------- chrome trace export ---------- *)

(* The escaper must invert for arbitrary bytes — quotes, backslashes,
   newlines, control bytes and non-ASCII all included (the generator
   draws from the full char range). *)
let escape_roundtrip =
  Generators.qtest "json escape round-trip" ~count:500
    (QCheck2.Gen.string_size ~gen:QCheck2.Gen.char (QCheck2.Gen.int_range 0 64))
    (fun s ->
      Trace_export.unescape_string (Trace_export.escape_string s) = s)

let test_escape_cases () =
  List.iter
    (fun (raw, escaped) ->
      Alcotest.(check string) ("escape " ^ escaped) escaped
        (Trace_export.escape_string raw);
      Alcotest.(check string) ("unescape " ^ escaped) raw
        (Trace_export.unescape_string escaped))
    [ ("he said \"hi\"", "he said \\\"hi\\\"");
      ("a\\b", "a\\\\b");
      ("line1\nline2\r\tend", "line1\\nline2\\r\\tend");
      ("\x01\x1f", "\\u0001\\u001f");
      (* non-ASCII UTF-8 passes through unescaped *)
      ("caf\xc3\xa9", "caf\xc3\xa9") ];
  (* the optional \/ and \uXXXX byte escapes are accepted on the way in *)
  Alcotest.(check string) "solidus escape accepted" "a/b"
    (Trace_export.unescape_string "a\\/b");
  Alcotest.(check string) "u-escape accepted" "A"
    (Trace_export.unescape_string "\\u0041");
  List.iter
    (fun bad ->
      match Trace_export.unescape_string bad with
      | _ -> Alcotest.failf "malformed %S accepted" bad
      | exception Trace_export.Bad_escape _ -> ())
    [ "tail\\"; "\\q"; "\\u12"; "\\uzzzz" ]

let test_export_shape () =
  let span ~id ?parent ~start_us ~dur name =
    { Trace.id; parent; name; start_us; duration_us = dur;
      labels = [ ("rows", "3") ] }
  in
  let entries =
    [ { Trace_store.node = "primary"; trace_id = "tid-1"; name = "SELECT 1";
        started_at = 100.0; total_us = 50;
        spans = [ span ~id:1 ~start_us:0 ~dur:50 "eval" ] };
      { Trace_store.node = "replica-0"; trace_id = "tid-1"; name = "SELECT 1";
        started_at = 100.01; total_us = 20;
        spans = [ span ~id:1 ~start_us:0 ~dur:20 "eval" ] } ]
  in
  let json = Trace_export.to_json entries in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) ("contains: " ^ sub) true (contains sub))
    [ "{\"traceEvents\":[";
      (* one process lane per node *)
      "\"process_name\"";
      "\"primary\"";
      "\"replica-0\"";
      (* both halves carry the shared trace id *)
      "\"trace_id\":\"tid-1\"";
      (* absolute alignment: 100 s origin -> 100_000_000 us *)
      "\"ts\":100000000";
      "\"ts\":100010000";
      "\"ph\":\"X\"";
      "\"rows\":\"3\"" ]

(* ---------- health rules ---------- *)

let rule ?(op = Health.Above) ?(degraded = 10.) ?(critical = 100.) name source =
  { Health.name; source; op; degraded; critical; help = "h:" ^ name }

let test_health_levels () =
  let reg = Registry.create () in
  let g = Registry.gauge reg ~name:"lag" ~help:"" in
  let rules = [ rule "lag" (Health.Metric "lag") ] in
  let level () = (Health.evaluate rules (Registry.collect reg)).Health.level in
  Instrument.Gauge.set g 5;
  Alcotest.(check bool) "below both: ok" true (level () = Health.Ok);
  Instrument.Gauge.set g 10;
  Alcotest.(check bool) "at degraded threshold fires" true
    (level () = Health.Degraded);
  Instrument.Gauge.set g 100;
  Alcotest.(check bool) "critical wins" true (level () = Health.Critical);
  match (Health.evaluate rules (Registry.collect reg)).Health.firing with
  | [ f ] ->
    Alcotest.(check string) "firing carries the rule" "lag" f.Health.rule_name;
    Alcotest.(check (float 1e-9)) "and the reading" 100. f.Health.value;
    Alcotest.(check string) "and the help" "h:lag" f.Health.help
  | _ -> Alcotest.fail "expected exactly one firing rule"

let test_health_worst_label_and_missing () =
  let reg = Registry.create () in
  let fam =
    Registry.gauge_family reg ~name:"per_replica_lag" ~help:""
      ~labels:[ "replica" ]
  in
  Instrument.Gauge.set (Instrument.Family.labelled fam [ "a" ]) 1;
  Instrument.Gauge.set (Instrument.Family.labelled fam [ "b" ]) 50;
  let rules =
    [ rule "lag" (Health.Metric "per_replica_lag");
      (* no such metric: skipped, not fired *)
      rule "ghost" (Health.Metric "nope") ]
  in
  let r = Health.evaluate rules (Registry.collect reg) in
  Alcotest.(check bool) "laggiest replica decides" true
    (r.Health.level = Health.Degraded);
  Alcotest.(check int) "absent metric skipped" 1 (List.length r.Health.firing)

let test_health_ratio_below () =
  let reg = Registry.create () in
  let hits = Registry.counter reg ~name:"hits" ~help:"" in
  let reqs = Registry.counter reg ~name:"reqs" ~help:"" in
  let rules =
    [ rule ~op:Health.Below ~degraded:0.5 ~critical:0.1 "hit_ratio"
        (Health.Ratio { num = "hits"; den = "reqs"; min_den = 8. }) ]
  in
  let level () = (Health.evaluate rules (Registry.collect reg)).Health.level in
  (* zero denominator: unevaluable, never fires *)
  Alcotest.(check bool) "cold cache is ok" true (level () = Health.Ok);
  (* 0/4 would read critical, but 4 samples is noise, not evidence *)
  Instrument.Counter.add reqs 4;
  Alcotest.(check bool) "below min_den: still skipped" true
    (level () = Health.Ok);
  Instrument.Counter.add reqs 6;
  Instrument.Counter.add hits 2;
  Alcotest.(check bool) "20% hit ratio degrades" true
    (level () = Health.Degraded);
  Instrument.Counter.add hits 7;
  Alcotest.(check bool) "90% hit ratio is ok" true (level () = Health.Ok)

let test_health_hist_frac () =
  let reg = Registry.create () in
  let h =
    Registry.histogram reg ~scale:1e-6 ~bounds:[| 1_000; 50_000; 1_000_000 |]
      ~name:"latency" ~help:"" ()
  in
  let rules =
    [ rule ~degraded:0.25 ~critical:0.75 "slow"
        (Health.Hist_frac_above { metric = "latency"; bound = 50_000. }) ]
  in
  let level () = (Health.evaluate rules (Registry.collect reg)).Health.level in
  Alcotest.(check bool) "no observations: skipped" true (level () = Health.Ok);
  (* 3 fast, 1 slow = 25% above the 50 ms bound *)
  List.iter (Instrument.Histogram.observe h) [ 10; 10; 10; 900_000 ];
  Alcotest.(check bool) "25% slow degrades" true (level () = Health.Degraded);
  List.iter (Instrument.Histogram.observe h) (List.init 8 (fun _ -> 900_000));
  Alcotest.(check bool) "75% slow is critical" true (level () = Health.Critical)

let test_health_strings () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "to/of_string invert" true
        (Health.level_of_string (Health.level_to_string l) = Some l))
    [ Health.Ok; Health.Degraded; Health.Critical ];
  Alcotest.(check bool) "unknown level rejected" true
    (Health.level_of_string "fine" = None);
  Alcotest.(check bool) "worst is critical" true
    (Health.worst Health.Degraded Health.Critical = Health.Critical)

(* ---------- slow log ---------- *)

(* The slow log is the trace store ranked by duration. *)
let stored ~name ~trace_id ~total_us =
  { Trace_store.node = "n1"; trace_id; name; started_at = 0.; total_us; spans = [] }

let slow_names store n =
  List.map (fun (e : Trace_store.entry) -> e.name) (Trace_store.slowest store n)

let test_slow_log_ranking () =
  let store = Trace_store.create ~capacity:8 () in
  List.iteri
    (fun i us ->
      Trace_store.record store
        (stored ~name:(Printf.sprintf "q%d" i) ~trace_id:(Printf.sprintf "t%d" i)
           ~total_us:us))
    [ 30; 100; 10; 100; 50 ];
  Alcotest.(check (list string)) "slowest first, ties newest first"
    [ "q3"; "q1"; "q4" ] (slow_names store 3);
  Alcotest.(check int) "asking beyond capacity is clamped" 5
    (List.length (Trace_store.slowest store 99))

(* What the ring holds is what gets ranked: a replication session's
   trace, however slow, is no statement, and the ring evicts by age. *)
let test_slow_log_threshold_and_eviction () =
  let store = Trace_store.create ~capacity:2 () in
  Trace_store.record store (stored ~name:"replicate r1" ~trace_id:"tr" ~total_us:900);
  Alcotest.(check int) "a replication session is skipped" 0
    (List.length (Trace_store.slowest store 10));
  List.iter
    (fun (s, us) -> Trace_store.record store (stored ~name:s ~trace_id:("t-" ^ s) ~total_us:us))
    [ ("a", 100); ("b", 30); ("c", 40) ];
  Alcotest.(check (list string)) "ring evicts oldest, not slowest"
    [ "c"; "b" ] (slow_names store 10)

(* ---------- prometheus rendering ---------- *)

(* A page of every sample shape the renderer knows — counters, gauges of
   every float form, a scaled counter, a labelled histogram family
   sharing one bounds array, custom bounds, escapes in help text and
   label values, a metric whose provider raised — renders byte for byte
   as the reference below. *)
let golden_metrics () =
  let hist bounds counts sum =
    Registry.Histogram_sample
      { Instrument.Histogram.bounds; counts; sum; count = Array.fold_left ( + ) 0 counts }
  in
  let lat = Instrument.Histogram.default_latency_bounds_us in
  let lat_counts k = Array.mapi (fun i _ -> (i * k) mod 3) lat in
  [ { Registry.name = "expirel_widgets_total"; help = "Widgets\\made\nby hand";
      kind = Registry.Counter_kind; scale = 1.0; samples = [ ([], Registry.Counter_sample 3) ] };
    { Registry.name = "expirel_modes_total"; help = "Removals by mode";
      kind = Registry.Counter_kind; scale = 1.0;
      samples =
        [ ([ ("mode", "eager") ], Registry.Counter_sample 0);
          ([ ("mode", "la\"zy\\x\ny") ], Registry.Counter_sample 1_000_000_000_000_000) ] };
    { Registry.name = "expirel_level"; help = "A gauge of every float shape";
      kind = Registry.Gauge_kind; scale = 1.0;
      samples =
        [ ([ ("v", "neg") ], Registry.Gauge_sample (-42.));
          ([ ("v", "frac") ], Registry.Gauge_sample (0.1 +. 0.2));
          ([ ("v", "big") ], Registry.Gauge_sample 1e20);
          ([ ("v", "tiny") ], Registry.Gauge_sample 1.5e-7);
          ([ ("v", "negzero") ], Registry.Gauge_sample (-0.));
          ([ ("v", "nan") ], Registry.Gauge_sample Float.nan);
          ([ ("v", "inf") ], Registry.Gauge_sample Float.infinity);
          ([ ("v", "-inf") ], Registry.Gauge_sample Float.neg_infinity);
          ([ ("a", "1"); ("b", "2") ], Registry.Gauge_sample 7.) ] };
    { Registry.name = "expirel_scaled_bytes"; help = "A scaled counter";
      kind = Registry.Counter_kind; scale = 1e-3; samples = [ ([], Registry.Counter_sample 1234) ] };
    { Registry.name = "expirel_stage_duration_seconds"; help = "Stage time";
      kind = Registry.Histogram_kind; scale = 1e-6;
      samples =
        [ ([ ("stage", "parse") ], hist lat (lat_counts 1) 401_999);
          ([ ("stage", "eval") ], hist lat (lat_counts 2) 7);
          ([], hist lat (lat_counts 0) 0) ] };
    { Registry.name = "expirel_sizes"; help = "Sizes";
      kind = Registry.Histogram_kind; scale = 1.0;
      samples = [ ([ ("k", "x") ], hist [| 1; 10; 100; max_int |] [| 1; 0; 2; 3 |] 5_150) ] };
    { Registry.name = "expirel_broken"; help = "A provider that raised";
      kind = Registry.Gauge_kind; scale = 1.0; samples = [] } ]

let golden_page =
  "# HELP expirel_widgets_total Widgets\\\\made\\nby hand\n\
   # TYPE expirel_widgets_total counter\n\
   expirel_widgets_total 3\n\
   # HELP expirel_modes_total Removals by mode\n\
   # TYPE expirel_modes_total counter\n\
   expirel_modes_total{mode=\"eager\"} 0\n\
   expirel_modes_total{mode=\"la\\\"zy\\\\x\\ny\"} 1e+15\n\
   # HELP expirel_level A gauge of every float shape\n\
   # TYPE expirel_level gauge\n\
   expirel_level{v=\"neg\"} -42\n\
   expirel_level{v=\"frac\"} 0.3\n\
   expirel_level{v=\"big\"} 1e+20\n\
   expirel_level{v=\"tiny\"} 1.5e-07\n\
   expirel_level{v=\"negzero\"} -0\n\
   expirel_level{v=\"nan\"} NaN\n\
   expirel_level{v=\"inf\"} +Inf\n\
   expirel_level{v=\"-inf\"} -Inf\n\
   expirel_level{a=\"1\",b=\"2\"} 7\n\
   # HELP expirel_scaled_bytes A scaled counter\n\
   # TYPE expirel_scaled_bytes counter\n\
   expirel_scaled_bytes 1.234\n\
   # HELP expirel_stage_duration_seconds Stage time\n\
   # TYPE expirel_stage_duration_seconds histogram\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"5e-05\"} 0\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.0001\"} 1\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.00025\"} 3\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.0005\"} 3\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.001\"} 4\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.0025\"} 6\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.005\"} 6\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.01\"} 7\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.025\"} 9\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.05\"} 9\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.1\"} 10\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.25\"} 12\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"0.5\"} 12\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"1\"} 13\n\
   expirel_stage_duration_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 15\n\
   expirel_stage_duration_seconds_sum{stage=\"parse\"} 0.401999\n\
   expirel_stage_duration_seconds_count{stage=\"parse\"} 15\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"5e-05\"} 0\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.0001\"} 2\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.00025\"} 3\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.0005\"} 3\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.001\"} 5\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.0025\"} 6\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.005\"} 6\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.01\"} 8\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.025\"} 9\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.05\"} 9\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.1\"} 11\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.25\"} 12\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.5\"} 12\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"1\"} 14\n\
   expirel_stage_duration_seconds_bucket{stage=\"eval\",le=\"+Inf\"} 15\n\
   expirel_stage_duration_seconds_sum{stage=\"eval\"} 7e-06\n\
   expirel_stage_duration_seconds_count{stage=\"eval\"} 15\n\
   expirel_stage_duration_seconds_bucket{le=\"5e-05\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.0001\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.00025\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.0005\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.001\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.0025\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.005\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.01\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.025\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.05\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.1\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.25\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"0.5\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"1\"} 0\n\
   expirel_stage_duration_seconds_bucket{le=\"+Inf\"} 0\n\
   expirel_stage_duration_seconds_sum 0\n\
   expirel_stage_duration_seconds_count 0\n\
   # HELP expirel_sizes Sizes\n\
   # TYPE expirel_sizes histogram\n\
   expirel_sizes_bucket{k=\"x\",le=\"1\"} 1\n\
   expirel_sizes_bucket{k=\"x\",le=\"10\"} 1\n\
   expirel_sizes_bucket{k=\"x\",le=\"100\"} 3\n\
   expirel_sizes_bucket{k=\"x\",le=\"+Inf\"} 6\n\
   expirel_sizes_sum{k=\"x\"} 5150\n\
   expirel_sizes_count{k=\"x\"} 6\n\
   # HELP expirel_broken A provider that raised\n\
   # TYPE expirel_broken gauge\n"

let test_prometheus_golden () =
  Alcotest.(check string) "byte-identical page" golden_page
    (Prometheus.render (golden_metrics ()))

let test_prometheus_render () =
  let reg = Registry.create () in
  let c =
    Registry.counter reg ~name:"expirel_widgets_total" ~help:"Widgets\nmade"
  in
  Instrument.Counter.add c 3;
  let h =
    Registry.histogram reg ~scale:1e-6 ~bounds:[| 1_000; 500_000 |]
      ~name:"expirel_lat_seconds" ~help:"lat" ()
  in
  Instrument.Histogram.observe h 400_000;
  Instrument.Histogram.observe h 999;
  let fam =
    Registry.counter_family reg ~name:"expirel_modes_total" ~help:"modes"
      ~labels:[ "mode" ]
  in
  Instrument.Counter.incr
    (Instrument.Family.labelled fam [ "ea\"ger\\x\ny" ]);
  let text = Prometheus.render (Registry.collect reg) in
  let has line = List.mem line (String.split_on_char '\n' text) in
  List.iter
    (fun line -> Alcotest.(check bool) ("has: " ^ line) true (has line))
    [ "# HELP expirel_widgets_total Widgets\\nmade";
      "# TYPE expirel_widgets_total counter";
      "expirel_widgets_total 3";
      "# TYPE expirel_lat_seconds histogram";
      "expirel_lat_seconds_bucket{le=\"0.001\"} 1";
      (* buckets are cumulative *)
      "expirel_lat_seconds_bucket{le=\"0.5\"} 2";
      "expirel_lat_seconds_bucket{le=\"+Inf\"} 2";
      "expirel_lat_seconds_count 2";
      (* label values escape backslash, quote and newline *)
      "expirel_modes_total{mode=\"ea\\\"ger\\\\x\\ny\"} 1" ];
  (* _sum is scaled to seconds *)
  Alcotest.(check bool) "sum scaled" true
    (List.exists
       (fun l ->
         String.length l > 24
         && String.sub l 0 24 = "expirel_lat_seconds_sum "
         && float_of_string (String.sub l 24 (String.length l - 24))
            -. 0.400999 < 1e-6)
       (String.split_on_char '\n' text))

(* ---------- exposition hygiene ----------

   A reusable lint over Prometheus text pages, shared with the server
   and cluster suites: every sample's family must be declared with
   [# HELP] and [# TYPE] before it, no family may be declared twice,
   and histogram [le] buckets must be strictly ascending and end at
   [+Inf]. *)

let lint_exposition text =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  try
    let help = Hashtbl.create 16 in
    let ty = Hashtbl.create 16 in
    (* per bucket series (family + labels sans le): le values seen *)
    let buckets = Hashtbl.create 16 in
    let strip_suffix name =
      List.find_map
        (fun suffix ->
          let n = String.length name and k = String.length suffix in
          if n > k && String.sub name (n - k) k = suffix then
            Some (String.sub name 0 (n - k))
          else None)
        [ "_bucket"; "_sum"; "_count" ]
    in
    let family_of name =
      match strip_suffix name with
      | Some base when Hashtbl.find_opt ty base = Some "histogram" -> base
      | _ -> name
    in
    let le_of labels =
      (* labels is the "{...}" section; pull out le="...", return the
         bound and the labels with the le pair removed (series key) *)
      let marker = "le=\"" in
      let n = String.length labels and k = String.length marker in
      let rec find i =
        if i + k > n then None
        else if
          String.sub labels i k = marker
          && i > 0
          && (labels.[i - 1] = '{' || labels.[i - 1] = ',')
        then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some i ->
        (match String.index_from_opt labels (i + k) '"' with
         | None -> bad "unterminated le label in %s" labels
         | Some j ->
           let v = String.sub labels (i + k) (j - i - k) in
           let rest =
             String.sub labels 0 i
             ^ String.sub labels (j + 1) (n - j - 1)
           in
           let bound =
             if v = "+Inf" then infinity
             else
               match float_of_string_opt v with
               | Some f -> f
               | None -> bad "unparsable le bound %S" v
           in
           Some (bound, rest))
    in
    List.iter
      (fun line ->
        if line = "" then ()
        else if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
          let name =
            match String.index_from_opt line 7 ' ' with
            | Some i -> String.sub line 7 (i - 7)
            | None -> String.sub line 7 (String.length line - 7)
          in
          if Hashtbl.mem help name then bad "duplicate # HELP for %s" name;
          Hashtbl.replace help name ()
        end
        else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.split_on_char ' ' line with
          | [ _; _; name; kind ] ->
            if Hashtbl.mem ty name then bad "duplicate # TYPE for %s" name;
            Hashtbl.replace ty name kind
          | _ -> bad "malformed TYPE line %S" line
        end
        else if line.[0] = '#' then ()
        else begin
          (* a sample: name{labels} value | name value *)
          let name, labels =
            match String.index_opt line '{' with
            | Some i ->
              (match String.rindex_opt line '}' with
               | Some j when j > i ->
                 String.sub line 0 i, String.sub line i (j - i + 1)
               | _ -> bad "unbalanced labels in %S" line)
            | None ->
              (match String.index_opt line ' ' with
               | Some i -> String.sub line 0 i, ""
               | None -> bad "malformed sample line %S" line)
          in
          let family = family_of name in
          if not (Hashtbl.mem ty family) then
            bad "sample %s before its # TYPE" name;
          if not (Hashtbl.mem help family) then
            bad "sample %s before its # HELP" name;
          match le_of labels with
          | None -> ()
          | Some (bound, series) ->
            let key = family ^ series in
            let seen =
              Option.value ~default:[] (Hashtbl.find_opt buckets key)
            in
            (match seen with
             | prev :: _ when bound <= prev ->
               bad "unsorted le buckets for %s" family
             | _ -> ());
            Hashtbl.replace buckets key (bound :: seen)
        end)
      (String.split_on_char '\n' text);
    Hashtbl.iter
      (fun key -> function
        | last :: _ when last <> infinity ->
          bad "bucket series %s does not end at +Inf" key
        | _ -> ())
      buckets;
    Ok ()
  with Bad m -> Error m

let check_exposition ~what text =
  match lint_exposition text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

(* A metric read in process from a collection, summed over its label
   combinations (e.g. expirations over every removal mode). *)
let total metrics name = List.fold_left ( +. ) 0. (Registry.values metrics name)

(* The one sample of an unlabelled metric, failing when the collection
   holds none. *)
let one metrics name =
  match Registry.values metrics name with
  | [ v ] -> v
  | vs -> Alcotest.failf "%s: expected one sample, got %d" name (List.length vs)

(* The metrics a health rule reads: a rule over an unregistered name is
   silently skipped, so tests check these against a live registry. *)
let rule_metrics (rule : Health.rule) =
  match rule.source with
  | Health.Metric name -> [ name ]
  | Health.Ratio { num; den; _ } -> [ num; den ]
  | Health.Hist_frac_above { metric; _ } -> [ metric ]

let test_exposition_hygiene () =
  (* a real page passes... *)
  let reg = Registry.create () in
  let h =
    Registry.histogram reg ~bounds:[| 10; 100 |] ~name:"expirel_h"
      ~help:"hist" ()
  in
  Instrument.Histogram.observe h 42;
  Instrument.Counter.incr (Registry.counter reg ~name:"expirel_c" ~help:"c");
  check_exposition ~what:"registry page" (Prometheus.render (Registry.collect reg));
  (* ...and each hygiene violation is caught *)
  let rejects what page =
    match lint_exposition page with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "lint accepted %s" what
  in
  rejects "a duplicate family"
    "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\n";
  rejects "a sample without HELP" "# TYPE a counter\na 1\n";
  rejects "a sample without TYPE" "# HELP a x\na 1\n";
  rejects "unsorted le buckets"
    "# HELP a x\n# TYPE a histogram\n\
     a_bucket{le=\"5\"} 1\na_bucket{le=\"1\"} 1\na_bucket{le=\"+Inf\"} 2\n\
     a_sum 3\na_count 2\n";
  rejects "a bucket series without +Inf"
    "# HELP a x\n# TYPE a histogram\n\
     a_bucket{le=\"1\"} 1\na_bucket{le=\"5\"} 2\na_sum 3\na_count 2\n"

(* A slow-log entry is a stored trace: it carries its request's trace
   id and spans, so it joins against the trace store's export. *)
let test_slow_log_joins_traces () =
  let store = Trace_store.create ~capacity:8 () in
  let tr = Trace.create () in
  Trace.span (Some tr) (Trace.name "eval") (fun () -> ());
  Trace_store.finish store ~node:"n1" ~name:"SELECT 1" tr;
  match Trace_store.slowest store 1 with
  | [ e ] ->
    Alcotest.(check string) "trace id stamped" (Trace.trace_id tr) e.trace_id;
    let joined =
      List.filter
        (fun (entry : Trace_store.entry) -> entry.trace_id = e.trace_id)
        (Trace_store.recent store 8)
    in
    Alcotest.(check int) "joins one stored trace" 1 (List.length joined)
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let suite =
  [ Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "latency bucket gap (500ms)" `Quick
      test_latency_bucket_gap;
    Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
    Alcotest.test_case "family raise releases mutex" `Quick
      test_family_raise_no_deadlock;
    Alcotest.test_case "family fold order" `Quick test_family_fold_sorted;
    Alcotest.test_case "multi-thread hammer" `Quick test_hammer;
    Alcotest.test_case "registry duplicate names" `Quick
      test_registry_duplicate;
    Alcotest.test_case "registry raising callback" `Quick
      test_registry_raising_callback;
    Alcotest.test_case "registry collection order" `Quick test_registry_order;
    Alcotest.test_case "trace spans" `Quick test_trace_spans;
    Alcotest.test_case "trace records on raise" `Quick
      test_trace_records_on_raise;
    Alcotest.test_case "trace ids, parents, labels" `Quick
      test_trace_ids_parents_labels;
    Alcotest.test_case "fresh trace ids are fixed-width" `Quick
      test_trace_id_fixed_width;
    Alcotest.test_case "trace inherits remote context" `Quick
      test_trace_inherited_context;
    Alcotest.test_case "self time" `Quick test_self_us;
    prop_recorder_matches_model;
    prop_ring_wraps;
    Alcotest.test_case "trace store ring" `Quick test_trace_store_ring;
    Alcotest.test_case "trace store finish" `Quick test_trace_store_finish;
    escape_roundtrip;
    Alcotest.test_case "json escape cases" `Quick test_escape_cases;
    Alcotest.test_case "chrome export shape" `Quick test_export_shape;
    Alcotest.test_case "health levels" `Quick test_health_levels;
    Alcotest.test_case "health worst label + missing metric" `Quick
      test_health_worst_label_and_missing;
    Alcotest.test_case "health ratio (below)" `Quick test_health_ratio_below;
    Alcotest.test_case "health histogram fraction" `Quick
      test_health_hist_frac;
    Alcotest.test_case "health level strings" `Quick test_health_strings;
    Alcotest.test_case "slow log ranking" `Quick test_slow_log_ranking;
    Alcotest.test_case "slow log threshold + eviction" `Quick
      test_slow_log_threshold_and_eviction;
    Alcotest.test_case "prometheus rendering" `Quick test_prometheus_render;
    Alcotest.test_case "prometheus page is byte-identical to its reference" `Quick
      test_prometheus_golden;
    Alcotest.test_case "exposition hygiene lint" `Quick
      test_exposition_hygiene;
    Alcotest.test_case "slow log joins trace store" `Quick
      test_slow_log_joins_traces ]
