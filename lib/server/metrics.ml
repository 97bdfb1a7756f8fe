open Expirel_obs

type repl_role = Primary | Replica

type repl_stats = {
  role : repl_role;
  source_position : int;
  lag_records : int;
  clock_lag : int;
  reconnects : int;
  bootstraps : int;
  records_shipped : int;
  followers : int;
}

type t = {
  reg : Registry.t;
  connections_total : Instrument.Counter.t;
  connections_active : Instrument.Gauge.t;
  requests_total : Instrument.Counter.t;
  errors_total : Instrument.Counter.t;
  bytes_in : Instrument.Counter.t;
  bytes_out : Instrument.Counter.t;
  events_pushed : Instrument.Counter.t;
  expirations : ([ `Eager | `Lazy ] * (unit -> int)) option ref;
      (* [expirel_tuples_expired_total]'s removal mode and count *)
  held_replies : Instrument.Counter.t Instrument.Family.t;
  held_answers : Instrument.Gauge.t;
  latency : Instrument.Histogram.t;
  stage : Instrument.Histogram.t Instrument.Family.t;
  op_eval : Instrument.Histogram.t Instrument.Family.t;
  by_name : Instrument.Histogram.t option array Atomic.t;
      (* [stage]'s or [op_eval]'s histogram for a span name, by
         interned name; grown (a copy) under [by_name_lock] *)
  by_name_lock : Mutex.t;
  mutable repl_provider : unit -> repl_stats option;
}

let build_version = "0.10.0"

let mode_label = function
  | `Eager -> "eager"
  | `Lazy -> "lazy"

let create () =
  let reg = Registry.create () in
  (* Every Prometheus page in a deployment identifies the build that
     produced it and how long it has been up. *)
  let started = Unix.gettimeofday () in
  Registry.custom reg ~name:"expirel_build_info"
    ~help:"Build identity (always 1; the labels carry the information)"
    ~kind:Registry.Gauge_kind (fun () ->
      [ ( [ ("version", build_version);
            ("wire_version", string_of_int Wire.version);
            ("ocaml_version", Sys.ocaml_version) ],
          Registry.Gauge_sample 1.0 ) ]);
  Registry.gauge_fun reg ~name:"expirel_uptime_seconds"
    ~help:"Seconds since this process registered its metrics" (fun () ->
      Unix.gettimeofday () -. started);
  { reg;
    connections_total =
      Registry.counter reg ~name:"expirel_connections_total"
        ~help:"Connections accepted since start";
    connections_active =
      Registry.gauge reg ~name:"expirel_connections_active"
        ~help:"Connections currently open";
    requests_total =
      Registry.counter reg ~name:"expirel_requests_total"
        ~help:"Requests received (any kind)";
    errors_total =
      Registry.counter reg ~name:"expirel_errors_total"
        ~help:"Requests answered with an error";
    bytes_in =
      Registry.counter reg ~name:"expirel_bytes_in_total"
        ~help:"Payload bytes received";
    bytes_out =
      Registry.counter reg ~name:"expirel_bytes_out_total"
        ~help:"Payload bytes sent (responses and pushed events)";
    events_pushed =
      Registry.counter reg ~name:"expirel_events_pushed_total"
        ~help:"Subscription events pushed to clients";
    expirations =
      (let source = ref None in
       (* Like a labelled family's member, the sample appears with the
          first expiration. *)
       Registry.custom reg ~name:"expirel_tuples_expired_total"
         ~help:"Tuples whose expiration the storage observed, by removal \
                policy (eager = at expiration time, lazy = on vacuum)"
         ~kind:Registry.Counter_kind (fun () ->
           match Option.map (fun (mode, count) -> (mode, count ())) !source with
           | Some (mode, n) when n > 0 ->
             [ ([ ("mode", mode_label mode) ], Registry.Counter_sample n) ]
           | Some _ | None -> []);
       source);
    held_replies =
      Registry.counter_family reg ~name:"expirel_held_replies_total"
        ~help:"Held answers sent, by form (delta = only the rows changed \
               since the connection's last read of the text, full = the \
               whole answer under a fresh version)"
        ~labels:[ "reply" ];
    held_answers =
      Registry.gauge reg ~name:"expirel_held_answers"
        ~help:"Answers held for open connections' next re-reads";
    latency =
      (* Microsecond observations, rendered in Prometheus-base seconds.
         The default bounds include the 500 ms bucket the original
         fixed array lacked. *)
      Registry.histogram reg ~scale:1e-6
        ~name:"expirel_request_duration_seconds"
        ~help:"Wall-clock request latency" ();
    stage =
      Registry.histogram_family reg ~scale:1e-6
        ~name:"expirel_request_stage_duration_seconds"
        ~help:"Time spent per request stage (parse, lower, eval, \
               rwlock_wait, storage)"
        ~labels:[ "stage" ] ();
    op_eval =
      Registry.histogram_family reg ~scale:1e-6
        ~name:"expirel_eval_operator_duration_seconds"
        ~help:"Evaluation time per algebra operator node (Explain's \
               operator vocabulary; parents include their children)"
        ~labels:[ "operator" ] ();
    by_name = Atomic.make [||];
    by_name_lock = Mutex.create ();
    repl_provider = (fun () -> None)
  }

let registry t = t.reg
let set_repl_source t f = t.repl_provider <- f

(* Never let a raising provider poison METRICS: report no replication
   samples instead.  (The provider may take server locks, so it also
   must never run under an instrument mutex — it doesn't; this is plain
   function application.) *)
let repl_source t () = try t.repl_provider () with _ -> None

let connection_opened t =
  Instrument.Counter.incr t.connections_total;
  Instrument.Gauge.add t.connections_active 1

let connection_closed t = Instrument.Gauge.add t.connections_active (-1)
let incr_requests t = Instrument.Counter.incr t.requests_total
let incr_errors t = Instrument.Counter.incr t.errors_total
let add_bytes_in t n = Instrument.Counter.add t.bytes_in n
let add_bytes_out t n = Instrument.Counter.add t.bytes_out n
let incr_events_pushed t = Instrument.Counter.incr t.events_pushed

let set_expirations t ~mode count = t.expirations := Some (mode, count)

let incr_held_reply t ~delta =
  Instrument.Counter.incr
    (Instrument.Family.labelled t.held_replies
       [ (if delta then "delta" else "full") ])

let add_held_answers t n = Instrument.Gauge.add t.held_answers n

let observe_latency t ~seconds =
  Instrument.Histogram.observe t.latency (int_of_float (seconds *. 1e6))

let op_prefix = "op:"

(* The family member a span name files under: [op:<name>] spans under
   their operator, the others under their stage. *)
let histogram_of_name t name =
  let s = Trace.name_string name and n = String.length op_prefix in
  if String.length s > n && String.starts_with ~prefix:op_prefix s then
    Instrument.Family.labelled t.op_eval [ String.sub s n (String.length s - n) ]
  else Instrument.Family.labelled t.stage [ s ]

let histogram t (name : Trace.name) =
  let i = (name :> int) in
  let a = Atomic.get t.by_name in
  match if i < Array.length a then a.(i) else None with
  | Some h -> h
  | None ->
    Mutex.lock t.by_name_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.by_name_lock) @@ fun () ->
    let h = histogram_of_name t name and a = Atomic.get t.by_name in
    let grown = Array.make (Int.max (Array.length a) (2 * (i + 1))) None in
    Array.blit a 0 grown 0 (Array.length a);
    grown.(i) <- Some h;
    Atomic.set t.by_name grown;
    h

(* Histograms observe each span's SELF time (duration minus direct
   children, via the recorded parent ids): a parent operator no longer
   double-counts the work its children already reported, so summing a
   family's buckets approximates real wall time.  Spans keep their
   inclusive durations everywhere else (trace store, wire). *)
let observe_trace t trace =
  Trace.iter_self trace (fun name self_us ->
      Instrument.Histogram.observe (histogram t name) self_us)

let prometheus t = Prometheus.render (Registry.collect t.reg)
