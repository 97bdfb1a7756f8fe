(* The sessions ledger: one seeded run of one workload against an
   in-process server (or a 3-shard cluster behind a coordinator), driven
   over loopback sockets by two closed-loop connections.

     ledger.exe --workload W --seed N --seconds S --trace 0|1

   With [--trace 0] it measures end-to-end latency and throughput with
   no bench-side tracing.  With [--trace 1] the op stream alternates
   untraced and traced segments: traced requests carry a trace context,
   and their time is split into layers from the spans the server
   already records plus bench-timed public calls.  Either way the run
   ends with the correctness gate, and the last line on stdout is the
   JSON result.  Human-readable tables go to stderr. *)

open Expirel_core
open Expirel_storage
open Expirel_sqlx
open Expirel_server
module Coordinator = Expirel_cluster.Coordinator
module Trace = Expirel_obs.Trace
module Trace_store = Expirel_obs.Trace_store
module Vec_stats = Expirel_obs.Vec_stats

let now = Unix.gettimeofday
(* Set-up is repeated for at least this long, and at least five times,
   so that its median spans more than one of the host's slow spells. *)
let setup_min_s = 1.5

(* Traced runs alternate untraced and traced segments of the same op
   stream, so both modes see the same state drift.  A traced segment's
   spans are read back only after both connections finish it, so the
   lookups never compete with measured requests; its length keeps every
   entry inside the server's 256-entry trace ring. *)
let segment_ops = 100

(* Each traced request's codec work is repeated this many times and
   averaged, to rise above the clock's microsecond resolution. *)
let codec_repeats = 4

(* ---------- the system under test ---------- *)

type target = {
  servers : Server.t list;  (** the server, or the shards in shard-id order *)
  coord : Coordinator.t option;
}

let database s = Interp.database (Server.interp s)

let start_server () =
  let config = { Server.default_config with max_connections = 16 } in
  let s = Server.create ~config () in
  Server.start s;
  s

let preload_into server rows =
  let db = database server in
  Rwlock.with_write (Server.lock server) (fun () ->
      List.iter
        (fun (sid, uid, texp) ->
          Database.insert db "sessions"
            (Tuple.of_list [ Value.int sid; Value.int uid ])
            ~texp:(Time.of_int texp))
        rows)

let ok_or_fail what = function
  | Wire.Err { message; _ } -> failwith (what ^ ": " ^ message)
  | (_ : Wire.response) -> ()

let setup (spec : Gen.spec) rows =
  if spec.shards = 0 then begin
    let s = start_server () in
    let admin = Client.connect ~host:"127.0.0.1" ~port:(Server.port s) () in
    List.iter
      (fun sql ->
        match Client.exec_ok admin sql with
        | Ok () -> ()
        | Error e -> failwith (sql ^ ": " ^ e))
      Gen.schema;
    Client.close admin;
    preload_into s (Array.to_list rows);
    { servers = [ s ]; coord = None }
  end
  else begin
    let servers = List.init spec.shards (fun _ -> start_server ()) in
    let coord =
      Coordinator.create ~heartbeat_interval:0.
        ~shards:
          (List.map
             (fun s -> { Coordinator.host = "127.0.0.1"; port = Server.port s })
             servers)
        ()
    in
    List.iter (fun sql -> ok_or_fail sql (Coordinator.exec coord sql)) Gen.schema;
    let map = Coordinator.shard_map coord in
    let parts = Array.make spec.shards [] in
    Array.iter
      (fun ((sid, _, _) as row) ->
        let owner = Wire.shard_owner map (Value.int sid) in
        parts.(owner) <- row :: parts.(owner))
      rows;
    List.iteri (fun i s -> preload_into s parts.(i)) servers;
    Coordinator.heartbeat_now coord;
    { servers; coord = Some coord }
  end

let teardown t =
  Option.iter Coordinator.close t.coord;
  List.iter Server.stop t.servers

(* ---------- issuing one op ---------- *)

type conn =
  | Wire_conn of Client.t
  | Coord_conn of Coordinator.t

let connect t =
  match t.coord with
  | Some c -> Coord_conn c
  | None ->
    let s = List.hd t.servers in
    Wire_conn (Client.connect ~host:"127.0.0.1" ~port:(Server.port s) ())

let close_conn = function
  | Wire_conn c -> Client.close c
  | Coord_conn _ -> ()

(* Scrapes and horizon polls are wire requests of their own; only the
   single-server mix has them. *)
let send ?trace conn (op : Gen.op) =
  match (conn, op.kind) with
  | Wire_conn c, Gen.Scrape -> Client.request c Wire.Metrics
  | Wire_conn c, Gen.Horizon -> Client.request c (Wire.Horizon None)
  | Wire_conn c, _ -> Client.exec_traced c ?trace op.sql
  | Coord_conn k, _ -> Ok (Coordinator.exec ?trace k op.sql)

(* The message a traced op travels as on a client connection — what the
   codec timing encodes and decodes. *)
let request_of tr (op : Gen.op) =
  match op.kind with
  | Gen.Scrape -> Wire.Metrics
  | Gen.Horizon -> Wire.Horizon None
  | _ ->
    Wire.Exec_traced
      { sql = op.sql; ctx = { trace_id = Trace.trace_id tr; parent_span = 0 } }

(* A reply of the right shape: checks return at most the named session,
   listings only the named user's sessions. *)
let valid (op : Gen.op) (reply : Wire.response) =
  let column n (vs, _) =
    match List.nth_opt vs n with
    | Some v -> Value.equal v (Value.int op.key)
    | None -> false
  in
  match (op.kind, reply) with
  | Gen.Check, Wire.Rows { rows; _ } ->
    List.length rows <= 1 && List.for_all (column 0) rows
  | Gen.List, Wire.Rows { rows; _ } -> List.for_all (column 1) rows
  | Gen.Agg, Wire.Rows _ -> true
  | (Gen.Write | Gen.Logout | Gen.Tick), Wire.Ok_msg _ -> true
  | Gen.Scrape, Wire.Metrics_reply _ -> true
  | Gen.Horizon, Wire.Horizon_reply _ -> true
  | _ -> false

(* ---------- attributing a traced request to layers ---------- *)

let known_operators =
  [ "index-scan"; "seq-scan"; "filter"; "project"; "aggregate"; "batch" ]

let layer_of_span name =
  match name with
  | "parse" -> "sqlx.parse_us"
  | "lower" -> "sqlx.lower_us"
  | "plan" -> "exec.plan_us"
  | "eval" | "sketch-query" -> "exec.eval_us"
  | "storage" -> "storage.storage_us"
  | "rwlock_wait" -> "server.rwlock_wait_us"
  | _ when String.starts_with ~prefix:"op:" name ->
    let op = String.sub name 3 (String.length name - 3) in
    if List.mem op known_operators then "exec.op." ^ op ^ "_us"
    else "exec.op.other_us"
  | _ -> "server.other_spans_us"

(* The layers whose per-request means add up to the client-observed
   latency; the reconciliation check sums exactly these. *)
let additive_layers =
  [ "wire.rtt_us"; "server.rwlock_wait_us"; "server.unattributed_us";
    "server.other_spans_us"; "sqlx.parse_us"; "sqlx.lower_us"; "exec.plan_us";
    "exec.eval_us" ]
  @ List.map (fun op -> "exec.op." ^ op ^ "_us") known_operators
  @ [ "exec.op.other_us"; "storage.storage_us"; "obs.scrape_us";
      "obs.horizon_us"; "cluster.scatter_us"; "cluster.shard_unattributed_us";
      "cluster.coord_unattributed_us" ]

(* One server-side trace entry: each span's self time to its layer, and
   the part of the entry's total no top-level span covers to
   [server.unattributed_us].  Returns the entry's total. *)
let attribute_entry add (e : Trace_store.entry) =
  let ids = List.map (fun (s : Trace.span) -> s.id) e.spans in
  let top =
    List.fold_left
      (fun top (s : Trace.span) ->
        add (layer_of_span s.name) (float_of_int (Trace.self_us e.spans s));
        match s.parent with
        | Some p when List.mem p ids -> top
        | Some _ | None -> top + s.duration_us)
      0 e.spans
  in
  add "server.unattributed_us" (float_of_int (e.total_us - top));
  float_of_int e.total_us

(* Each server's recent trace entries, by trace id. *)
let index_traces servers =
  List.map
    (fun s ->
      let h = Hashtbl.create 512 in
      List.iter
        (fun (e : Trace_store.entry) -> Hashtbl.add h e.trace_id e)
        (Trace_store.recent (Server.trace_store s) 256);
      h)
    servers

(* A request to the single server: its one trace entry, and the rest of
   the client-observed time as the wire round trip. *)
let attribute_single add ~latency_us index tr =
  match Hashtbl.find_all index (Trace.trace_id tr) with
  | [ e ] ->
    let total = attribute_entry add e in
    add "wire.rtt_us" (latency_us -. total);
    true
  | _ -> false

let rpc_shard name =
  if String.starts_with ~prefix:"rpc:shard-" name then
    int_of_string_opt (String.sub name 10 (String.length name - 10))
  else None

(* A request through the coordinator.  A scatter-gather's critical path
   is the slowest shard: its rpc span bounds the shard side, the rest
   of the scatter span is fan-out overhead.  Routed writes and
   broadcasts (sequential) have no rpc spans: everything after the
   coordinator's own spans is shard side, over every shard contacted. *)
let attribute_cluster add ~latency_us indexes tr =
  let id = Trace.trace_id tr in
  let spans = Trace.spans tr in
  let top = List.filter (fun (s : Trace.span) -> s.parent = None) spans in
  let top_us =
    List.fold_left (fun acc (s : Trace.span) -> acc + s.duration_us) 0 top
  in
  List.iter
    (fun (s : Trace.span) ->
      if s.name <> "scatter" then
        add (layer_of_span s.name) (float_of_int s.duration_us))
    top;
  let rpcs =
    List.filter_map
      (fun (s : Trace.span) ->
        Option.map (fun shard -> (shard, s.duration_us)) (rpc_shard s.name))
      spans
  in
  let scatter = List.find_opt (fun (s : Trace.span) -> s.name = "scatter") top in
  let critical, shard_side =
    match (scatter, rpcs) with
    | Some sc, first :: rest ->
      let shard, slowest =
        List.fold_left (fun (a, da) (b, db) -> if db > da then (b, db) else (a, da))
          first rest
      in
      add "cluster.scatter_us" (float_of_int (sc.duration_us - slowest));
      add "cluster.coord_unattributed_us" (latency_us -. float_of_int top_us);
      (Hashtbl.find_all (List.nth indexes shard) id, float_of_int slowest)
    | _ ->
      ( List.concat_map (fun index -> Hashtbl.find_all index id) indexes,
        latency_us -. float_of_int top_us )
  in
  add "cluster.rpc_us" shard_side;
  let served = List.fold_left (fun acc e -> acc +. attribute_entry add e) 0. critical in
  add "cluster.shard_unattributed_us" (shard_side -. served);
  critical <> []

(* Encode and decode the op's own request and the reply it got, as both
   ends of a client connection do. *)
let time_codec add request reply =
  let t0 = now () in
  let bytes = ref 0 in
  for _ = 1 to codec_repeats do
    let req = Wire.encode_request request in
    ignore (Wire.decode_request req);
    let resp = Wire.encode_response reply in
    ignore (Wire.decode_response resp);
    bytes := String.length req + String.length resp + 8
  done;
  add "wire.codec_us" ((now () -. t0) *. 1e6 /. float_of_int codec_repeats);
  add "wire.bytes_per_req" (float_of_int !bytes)

(* ---------- the closed-loop load ---------- *)

type lane = {
  conn : conn;
  ops : Gen.op array;
  lat_us : float array;
  traced : bool array;
  by_kind : (Gen.kind * string, float) Hashtbl.t;
      (** (op kind, layer) -> total over traced ops *)
  mutable pending : (int * Trace.t * Wire.response) list;
      (** traced ops of the current segment, attributed at its end *)
  mutable unattributed_requests : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failures *)
  mutable events : int;
  mutable last_event : Time.t;
  mutable disordered : int;
}

let new_lane conn ops =
  let n = Array.length ops in
  { conn; ops; lat_us = Array.make n 0.; traced = Array.make n false;
    by_kind = Hashtbl.create 256; pending = []; unattributed_requests = 0;
    failed = 0; errors = [];
    events = 0; last_event = Time.zero; disordered = 0 }

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

type barrier = {
  mutex : Mutex.t;
  cond : Condition.t;
  parties : int;
  mutable waiting : int;
  mutable round : int;
}

let await b =
  Mutex.lock b.mutex;
  let round = b.round in
  b.waiting <- b.waiting + 1;
  if b.waiting = b.parties then begin
    b.waiting <- 0;
    b.round <- round + 1;
    Condition.broadcast b.cond
  end
  else
    while b.round = round do
      Condition.wait b.cond b.mutex
    done;
  Mutex.unlock b.mutex

let event_at = function
  | Wire.Row_expired { at; _ } | Wire.Row_appeared { at; _ }
  | Wire.Refreshed { at; _ } -> at

(* Pushed events queue on the connection while it waits for replies;
   they must arrive in logical-time order. *)
let drain_events lane =
  match lane.conn with
  | Coord_conn _ -> ()
  | Wire_conn c ->
    List.iter
      (fun ev ->
        let at = event_at ev in
        if Time.(at < lane.last_event) then lane.disordered <- lane.disordered + 1;
        lane.last_event <- Time.max lane.last_event at;
        lane.events <- lane.events + 1)
      (Client.events c)

let fail lane message =
  lane.failed <- lane.failed + 1;
  if List.length lane.errors < 5 then lane.errors <- message :: lane.errors

let run_op lane i ~traced =
  let op = lane.ops.(i) in
  let trace = if traced then Some (Trace.create ()) else None in
  let t0 = now () in
  let reply = send ?trace lane.conn op in
  lane.lat_us.(i) <- (now () -. t0) *. 1e6;
  lane.traced.(i) <- traced;
  (match reply with
   | Ok r when valid op r ->
     Option.iter (fun tr -> lane.pending <- (i, tr, r) :: lane.pending) trace
   | Ok (Wire.Err { message; _ }) -> fail lane (op.sql ^ ": " ^ message)
   | Ok r -> fail lane (op.sql ^ ": unexpected reply " ^ Wire.render_response r)
   | Error e -> fail lane (op.sql ^ ": " ^ e));
  drain_events lane

(* Split the finished segment's traced requests into layers. *)
let attribute_pending lane indexes =
  List.iter
    (fun (i, tr, reply) ->
      let op = lane.ops.(i) in
      let latency_us = lane.lat_us.(i) in
      let add layer v = bump lane.by_kind (op.kind, layer) v in
      add "layers.client_us" latency_us;
      let attributed =
        match (op.kind, lane.conn) with
        | Gen.Scrape, _ -> add "obs.scrape_us" latency_us; true
        | Gen.Horizon, _ -> add "obs.horizon_us" latency_us; true
        | _, Wire_conn _ -> attribute_single add ~latency_us (List.hd indexes) tr
        | _, Coord_conn _ -> attribute_cluster add ~latency_us indexes tr
      in
      if not attributed then
        lane.unattributed_requests <- lane.unattributed_requests + 1;
      (match reply with
       | Wire.Metrics_reply page ->
         add "obs.scrape_bytes" (float_of_int (String.length page))
       | _ -> ());
      time_codec add (request_of tr op) reply)
    lane.pending;
  lane.pending <- []

(* With [traced_run], odd segments are traced; after each one both
   connections stop, attribute from quiet trace rings, and go on. *)
let run_lane target lane barrier ~traced_run =
  let n = Array.length lane.ops in
  let segments = if traced_run then (n + segment_ops - 1) / segment_ops else 1 in
  for seg = 0 to segments - 1 do
    await barrier;
    let traced = traced_run && seg mod 2 = 1 in
    for i = seg * n / segments to ((seg + 1) * n / segments) - 1 do
      run_op lane i ~traced
    done;
    if traced then begin
      await barrier;
      attribute_pending lane (index_traces target.servers)
    end
  done

(* ---------- counters read around the load ---------- *)

type counters = {
  plan_hits : int;
  plan_misses : int;
  vexec : Vec_stats.snapshot;
  expired : int;
  traffic : Coordinator.traffic option;
}

let read_counters t =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 t.servers in
  { plan_hits = sum (fun s -> (Interp.plan_cache_stats (Server.interp s)).hits);
    plan_misses = sum (fun s -> (Interp.plan_cache_stats (Server.interp s)).misses);
    vexec = Vec_stats.snapshot ();
    expired = sum (fun s -> Database.expired_total (database s));
    traffic = Option.map Coordinator.traffic t.coord }

(* ---------- the correctness gate ---------- *)

let sorted_rows rows = List.sort compare rows

(* The naive evaluator over the final state: one database, or the union
   of every shard's partition (hash partitions are disjoint). *)
let naive_rows dbs sql =
  let q =
    match Parser.parse_statement sql with
    | Ast.Query { q; _ } -> q
    | _ -> failwith ("gate: not a query: " ^ sql)
  in
  let db0 = List.hd dbs in
  let catalog name = Option.map Table.columns (Database.table db0 name) in
  let { Lower.expr; _ } = Lower.lower_query ~catalog q in
  let env name =
    List.fold_left
      (fun acc db ->
        match (acc, Database.env db name) with
        | None, r | r, None -> r
        | Some a, Some b -> Some (Relation.union_max a b))
      None dbs
  in
  let { Eval.relation; _ } = Eval.run ~env ~tau:(Database.now db0) expr in
  sorted_rows
    (List.map (fun (t, e) -> (Tuple.to_list t, e)) (Relation.to_list relation))

let gate (spec : Gen.spec) ~seed t =
  let problems = ref [] in
  let problem p = problems := p :: !problems in
  let dbs = List.map database t.servers in
  let clocks = List.sort_uniq Time.compare (List.map Database.now dbs) in
  if List.length clocks <> 1 then problem "shard clocks disagree";
  let conn = connect t in
  List.iter
    (fun sql ->
      match send conn { Gen.kind = Gen.Agg; sql; key = -1 } with
      | Ok (Wire.Rows { rows; _ }) ->
        if sorted_rows rows <> naive_rows dbs sql then
          problem ("wire and naive Eval differ on: " ^ sql)
      | Ok r -> problem (sql ^ ": " ^ Wire.render_response r)
      | Error e -> problem (sql ^ ": " ^ e))
    (Gen.gate_queries spec ~seed);
  close_conn conn;
  List.rev !problems

(* ---------- statistics ---------- *)

(* Nearest-rank percentile of an ascending array; 0 when empty (the op
   is not in this workload's mix). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

let count_ops lanes pred =
  List.fold_left
    (fun acc l ->
      let n = ref acc in
      Array.iteri (fun i op -> if pred op l.traced.(i) then incr n) l.ops;
      !n)
    0 lanes

(* Untraced latencies of one kind across lanes, ascending. *)
let latencies lanes kind =
  let xs =
    List.concat_map
      (fun l ->
        List.filteri (fun i _ -> l.ops.(i).Gen.kind = kind && not l.traced.(i))
          (Array.to_list l.lat_us))
      lanes
  in
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean_of a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* ---------- command line ---------- *)

let usage =
  "ledger.exe --workload authz-check|session-churn|cluster-fanout --seed N \
   --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "generator seed");
      ("--seconds", Arg.Set_int seconds, "run length: fixes the op budget");
      ("--trace", Arg.Set_int trace, "1 = traced run with a layer breakdown") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload Gen.workloads with
  | Some w when !seconds > 0 && (!trace = 0 || !trace = 1) ->
    (w, !seed, !seconds, !trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2

(* ---------- reporting ---------- *)

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Printf.sprintf "%.17g" v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let report_latencies lanes =
  Printf.eprintf "%-8s %8s %10s %10s %10s\n" "kind" "n" "p50_us" "p90_us" "p99_us";
  List.iter
    (fun k ->
      let a = latencies lanes k in
      if Array.length a > 0 then
        Printf.eprintf "%-8s %8d %10.1f %10.1f %10.1f\n" (Gen.kind_name k)
          (Array.length a) (percentile a 0.5) (percentile a 0.9) (percentile a 0.99))
    Gen.kinds

let kind_sum lanes kind layer =
  List.fold_left
    (fun acc l -> acc +. Option.value ~default:0. (Hashtbl.find_opt l.by_kind (kind, layer)))
    0. lanes

(* Per-kind means of the additive layers, so each residual can be read
   against the op that pays it. *)
let report_breakdown lanes mean =
  let traced kind = count_ops lanes (fun (o : Gen.op) tr -> tr && o.kind = kind) in
  let present = List.filter (fun k -> traced k > 0) Gen.kinds in
  let kind_mean kind layer = kind_sum lanes kind layer /. float_of_int (traced kind) in
  Printf.eprintf "\nper-request mean us, traced segments\n%-30s %9s" "layer" "all";
  List.iter (fun k -> Printf.eprintf " %9s" (Gen.kind_name k)) present;
  prerr_newline ();
  List.iter
    (fun layer ->
      if mean layer <> 0. then begin
        Printf.eprintf "%-30s %9.1f" layer (mean layer);
        List.iter (fun k -> Printf.eprintf " %9.1f" (kind_mean k layer)) present;
        prerr_newline ()
      end)
    ("layers.client_us" :: additive_layers)

(* ---------- metrics ---------- *)

let end_to_end lanes ~wall ~setup_s =
  let attempted = count_ops lanes (fun _ _ -> true) in
  [ ("throughput_rps", "1/s", float_of_int attempted /. wall);
    ("setup_s", "s", median setup_s) ]

(* The traced run's metrics, and whether its breakdown reconciles: every
   traced request found its trace entries, no residual is negative, and
   the additive layers sum to the client-observed mean. *)
let per_layer lanes ~before ~after ~subscribed =
  let p kind q = percentile (latencies lanes kind) q in
  let total f = List.fold_left (fun acc l -> acc + f l) 0 lanes in
  let n_traced = count_ops lanes (fun _ tr -> tr) in
  let unattributed = total (fun l -> l.unattributed_requests) in
  let sum layer = List.fold_left (fun acc k -> acc +. kind_sum lanes k layer) 0. Gen.kinds in
  let mean layer = if n_traced = 0 then 0. else sum layer /. float_of_int n_traced in
  let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  let attempted = count_ops lanes (fun _ _ -> true) in
  let ticks = count_ops lanes (fun (o : Gen.op) _ -> o.kind = Gen.Tick) in
  let scrapes = count_ops lanes (fun (o : Gen.op) tr -> tr && o.kind = Gen.Scrape) in
  let per_req n = ratio n attempted in
  let cluster f =
    match (before.traffic, after.traffic) with
    | Some b, Some a -> per_req (f a - f b)
    | _ -> 0.
  in
  (* Tracing overhead at equal op mix: what the traced ops took against
     what the same kinds of op took untraced. *)
  let untraced_mean = List.map (fun k -> (k, mean_of (latencies lanes k))) Gen.kinds in
  let traced_us = ref 0. and expected_us = ref 0. in
  List.iter
    (fun l ->
      Array.iteri
        (fun i (o : Gen.op) ->
          let m = List.assoc o.kind untraced_mean in
          if l.traced.(i) && not (Float.is_nan m) then begin
            traced_us := !traced_us +. l.lat_us.(i);
            expected_us := !expected_us +. m
          end)
        l.ops)
    lanes;
  let client = mean "layers.client_us" in
  let layers_total = List.fold_left (fun acc l -> acc +. mean l) 0. additive_layers in
  let largest =
    List.fold_left (fun best l -> if mean l > mean best then l else best)
      (List.hd additive_layers) additive_layers
  in
  report_breakdown lanes mean;
  Printf.eprintf
    "reconciliation: layers %.2f us vs client %.2f us; largest layer %s (%.1f us, %.0f%%)\n"
    layers_total client largest (mean largest) (100. *. mean largest /. client);
  let reconciled =
    unattributed = 0 && n_traced > 0
    && Float.abs (layers_total -. client) <= Float.max 1. (0.01 *. client)
    && List.for_all
         (fun l -> mean l >= -1.)
         [ "wire.rtt_us"; "server.unattributed_us"; "cluster.scatter_us";
           "cluster.shard_unattributed_us"; "cluster.coord_unattributed_us" ]
  in
  if not reconciled then
    Printf.eprintf "reconciliation FAILED (%d request(s) without a trace entry)\n"
      unattributed;
  let plan_hits = after.plan_hits - before.plan_hits in
  let events = total (fun l -> l.events) in
  ( List.map (fun l -> (l, "us", mean l)) additive_layers
    @ [ ("layers.client_us", "us", client);
        ("wire.codec_us", "us", mean "wire.codec_us");
        ("wire.bytes_per_req", "bytes", mean "wire.bytes_per_req");
        ("cluster.rpc_us", "us", mean "cluster.rpc_us");
        ("exec.plan_cache_hit_ratio", "ratio",
         ratio plan_hits (plan_hits + after.plan_misses - before.plan_misses));
        ("exec.vexec_rows_per_req", "rows",
         per_req (after.vexec.s_rows - before.vexec.s_rows));
        ("exec.vexec_cut_skipped_per_req", "rows",
         per_req (after.vexec.s_cut_skipped - before.vexec.s_cut_skipped));
        ("exec.vexec_rebatches_per_req", "count",
         per_req (after.vexec.s_rebatches - before.vexec.s_rebatches));
        ("storage.expired_per_tick", "rows", ratio (after.expired - before.expired) ticks);
        ("storage.subscription_events_per_tick", "count",
         if subscribed then ratio events ticks else 0.);
        ("obs.scrape_bytes", "bytes",
         if scrapes = 0 then 0. else sum "obs.scrape_bytes" /. float_of_int scrapes);
        ("obs.trace_overhead_pct", "%",
         if !expected_us = 0. then 0. else 100. *. ((!traced_us /. !expected_us) -. 1.));
        ("cluster.messages_per_req", "count", cluster (fun t -> t.Coordinator.messages));
        ("cluster.bytes_per_req", "bytes",
         cluster (fun t -> t.Coordinator.bytes_sent + t.Coordinator.bytes_received));
        ("cluster.pruned_per_req", "count", cluster (fun t -> t.Coordinator.pruned));
        ("check_p50_us", "us", p Gen.Check 0.5);
        ("check_p99_us", "us", p Gen.Check 0.99);
        ("list_p50_us", "us", p Gen.List 0.5);
        ("write_p50_us", "us", p Gen.Write 0.5);
        ("write_p99_us", "us", p Gen.Write 0.99);
        ("advance_p50_us", "us", p Gen.Tick 0.5);
        ("advance_p90_us", "us", p Gen.Tick 0.9);
        ("agg_p50_us", "us", p Gen.Agg 0.5);
        ("agg_p90_us", "us", p Gen.Agg 0.9);
        ("logout_p50_us", "us", p Gen.Logout 0.5);
        ("scrape_p50_us", "us", p Gen.Scrape 0.5);
        ("horizon_p50_us", "us", p Gen.Horizon 0.5) ],
    reconciled )

(* ---------- main ---------- *)

(* Set up until [setup_min_s] have passed and at least five times,
   timing each, and keep the last. *)
let set_up spec rows =
  let times = ref [] in
  let start = now () in
  let rec go k =
    Gc.compact ();
    let t0 = now () in
    let t = setup spec rows in
    times := (now () -. t0) :: !times;
    if k < 5 || now () -. start < setup_min_s then begin
      teardown t;
      go (k + 1)
    end
    else t
  in
  let t = go 1 in
  (t, List.rev !times)

let () =
  let workload, seed, seconds, traced_run = parse_args () in
  let spec = Gen.spec workload in
  let rows = Gen.preload spec ~seed in
  let streams = Gen.streams spec ~seed ~seconds in
  let target, setup_s = set_up spec rows in
  let lanes = Array.to_list (Array.map (fun ops -> new_lane (connect target) ops) streams) in
  let subscribed =
    match (spec.subscribe, List.hd lanes) with
    | true, { conn = Wire_conn c; _ } ->
      (match Client.subscribe c ~name:"watch" ~query:(Gen.subscription_sql spec) with
       | Ok () -> true
       | Error e -> failwith ("SUBSCRIBE: " ^ e))
    | _ -> false
  in
  Gc.compact ();
  let before = read_counters target in
  let barrier =
    { mutex = Mutex.create (); cond = Condition.create (); parties = List.length lanes;
      waiting = 0; round = 0 }
  in
  let t0 = now () in
  List.iter Thread.join
    (List.map
       (fun lane -> Thread.create (fun () -> run_lane target lane barrier ~traced_run) ())
       lanes);
  let wall = now () -. t0 in
  let after = read_counters target in
  List.iter (fun l -> close_conn l.conn) lanes;
  let problems = gate spec ~seed target in
  teardown target;
  let total f = List.fold_left (fun acc l -> acc + f l) 0 lanes in
  let attempted = total (fun l -> Array.length l.ops) in
  let failed = total (fun l -> l.failed) in
  let disordered = total (fun l -> l.disordered) in
  List.iter (fun l -> List.iter (Printf.eprintf "error: %s\n") (List.rev l.errors)) lanes;
  List.iter (Printf.eprintf "gate: %s\n") problems;
  if disordered > 0 then
    Printf.eprintf "gate: %d subscription event(s) out of logical-time order\n" disordered;
  Printf.eprintf "%s seed %d: %d ops in %.2fs (%.0f req/s), %d failed, setup %s s\n"
    (Gen.workload_name workload) seed attempted wall
    (float_of_int attempted /. wall) failed
    (String.concat "/" (List.map (Printf.sprintf "%.3f") setup_s));
  report_latencies lanes;
  let metrics, reconciled =
    if traced_run then per_layer lanes ~before ~after ~subscribed
    else (end_to_end lanes ~wall ~setup_s, true)
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "a metric is not a finite number";
  let correct = failed = 0 && problems = [] && disordered = 0 && reconciled && finite in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
