open Expirel_core
open Expirel_sqlx
open Expirel_server
open Expirel_repl
module Obs = Expirel_obs
module Sketch = Expirel_sketch
module Partial_agg = Expirel_exec.Partial_agg
module Subscription = Expirel_exec.Subscription

(* The span names a coordinator records, interned once; each slot
   interns its own [rpc:shard-<id>]. *)
let scatter_span = Obs.Trace.name "scatter"
let merge_span = Obs.Trace.name "merge"

type endpoint = Member.endpoint = {
  host : string;
  port : int;
}

(* What a slot's pongs told of its node's boot id since the slot was
   made.  A map change changes no node's boot id, so it keeps this. *)
type boot =
  | Unseen
  | Booted of string  (* the id recorded from the first pong *)
  | Restarted  (* a later pong brought another: the partition is gone *)

type slot = {
  shard : Wire.shard;
  member : Member.t;
  slot_lock : Mutex.t;  (* one in-flight request per connection *)
  requests : Obs.Instrument.Counter.t;
  rpc_span : Obs.Trace.name;  (* rpc:shard-<id> *)
  mutable summary : Wire.partition_texp option;  (* None = unknown *)
  mutable boot : boot;
  mutable reachable : bool;
}

(* ---------- standing GROUP BY COUNT ---------- *)

module Groups = Expirel_exec.Group_map

(* A repeated cluster GROUP BY COUNT, kept: per shard its condensed
   groups as it last shipped them, by key, and the held version it
   shipped them under (0: none), and the answer their merge finalises
   to.  Valid for one [epoch]. *)
type held = {
  mutable version : int;
  mutable groups : Partial_agg.group Groups.t;
}

type kept = {
  lock : Mutex.t;  (* one read at a time applies its replies *)
  epoch : int;
  held : (int, held) Hashtbl.t;  (* by shard id *)
  mutable counts : Subscription.counts;
}

(* A statement's lowering through the cluster catalog and its read
   route, made once per statement shape and catalog [epoch]: the
   coordinator's statement cache entry.  [l_literals] are the literals
   it was made or rebound for. *)
type lowered = {
  l_epoch : int;
  l_compiled : Lower.compiled;
  l_route : Lower.route;
  l_literals : Value.t array;
}

type traffic = {
  fanouts : int;
  pruned : int;
  messages : int;
  bytes_sent : int;
  bytes_received : int;
}

type t = {
  loop : Loop.t;  (* its registry and trace store are the coordinator's *)
  requests_family : Obs.Instrument.Counter.t Obs.Instrument.Family.t;
  pruned_total : Obs.Instrument.Counter.t;
  routed_total : Obs.Instrument.Counter.t;
  fanouts_total : Obs.Instrument.Counter.t;
  messages_total : Obs.Instrument.Counter.t;
  bytes_sent_total : Obs.Instrument.Counter.t;
  bytes_received_total : Obs.Instrument.Counter.t;
  agg_delta_reads_total : Obs.Instrument.Counter.t;
  agg_full_reads_total : Obs.Instrument.Counter.t;
  state : Mutex.t;  (* guards map/slots/now/tables/indexes/kept *)
  tables : (string, string list) Hashtbl.t;
      (* the cluster catalog as this coordinator knows it: seeded from
         the CREATE TABLEs it broadcasts, lazily recovered from a
         zero-row describe scan otherwise (a coordinator can attach to
         an already-populated cluster) — distributed aggregates and
         joins need column names and arities before any shard replies *)
  indexes : (string * string, unit) Hashtbl.t;
      (* (table, column) of each CREATE INDEX this coordinator broadcast
         and has not seen dropped, replayed on a joining shard; a
         coordinator attached to a running cluster knows only these *)
  mutable map : Wire.shard_map;
  mutable slots : slot list;  (* same order as [map.shards] *)
  rebalance : Expirel_storage.Rwlock.t;
      (* every SQL statement holds its read side, a rebalance its write
         side: no statement sees a half-moved partition *)
  mutable now : Time.t;  (* mirror of the cluster's logical clock *)
  kept : (string, kept) Expirel_exec.Lru.t;
      (* repeated GROUP BY COUNT texts, kept; an entry whose epoch is
         not [epoch] is dropped on its next read *)
  mutable epoch : int;  (* bumped by every DDL and shard-map change *)
  statements : lowered Statement_cache.t;
  mutable last_horizon : Obs.Horizon.report option;
      (* the last merged cluster forecast; the registry's horizon
         gauges read this cache so a scrape never fans out — HEALTH
         and HORIZON requests refresh it *)
  mutable hb_thread : Thread.t option;
  mutable stopping : bool;
  heartbeat_interval : float;
}

let locked t f =
  Mutex.lock t.state;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state) f

let shard_map t = locked t (fun () -> t.map)
let slots t = locked t (fun () -> t.slots)

(* ---------- health ---------- *)

(* [shards] is the fleet size the critical thresholds scale with:
   one silent shard degrades, a majority gone is critical. *)
let default_health_rules ~shards =
  let majority = float_of_int ((shards / 2) + 1) in
  [ { Obs.Health.name = "unreachable_shards";
      source = Obs.Health.Metric "expirel_cluster_unreachable_shards";
      op = Obs.Health.Above;
      degraded = 1.;
      critical = majority;
      help = "shards that did not answer their last contact or heartbeat"
    };
    { Obs.Health.name = "restarted_shards";
      source = Obs.Health.Metric "expirel_cluster_restarted_shards";
      op = Obs.Health.Above;
      degraded = 1.;
      critical = majority;
      help = "shards restarted since their first heartbeat or the last \
              ADD/REMOVE SHARD (a restarted in-memory shard has lost its \
              partition)"
    };
    (* Predictive, from the merged horizon cache: these fire before
       the trouble, not after — the forecast is exact because every
       tuple's expiration time is known today. *)
    { Obs.Health.name = "cluster_expiration_storm";
      source =
        Obs.Health.Ratio
          { num = "expirel_cluster_horizon_expiring_soon";
            den = "expirel_cluster_live_rows";
            min_den = 8.
          };
      op = Obs.Health.Above;
      degraded = 0.5;
      critical = 0.9;
      help = "fraction of the cluster's live rows expiring within the \
              next horizon window — the next ADVANCEs will drop them \
              all at once"
    };
    { Obs.Health.name = "cluster_fanout_storm";
      source = Obs.Health.Metric "expirel_cluster_horizon_fanout_events";
      op = Obs.Health.Above;
      degraded = 256.;
      critical = 4096.;
      help = "subscription events the next ADVANCE window delivers \
              across the cluster"
    }
  ]

(* ---------- the one fan-out ---------- *)

(* What every collected reply feeds, whichever path asked: reachability,
   the traffic counters (from the frame sizes the client measured:
   payload + 4 for the length prefix), and the partition summary
   piggybacked on the statement envelope or the heartbeat pong. *)
let account t slot result =
  match result with
  | Ok (resp, sent, received) ->
    slot.reachable <- true;
    Obs.Instrument.Counter.incr slot.requests;
    Obs.Instrument.Counter.incr t.messages_total;
    Obs.Instrument.Counter.add t.bytes_sent_total sent;
    Obs.Instrument.Counter.add t.bytes_received_total received;
    (match resp with
     | Wire.Shard_reply { partition; _ } -> slot.summary <- Some partition
     | Wire.Shard_pong { partition; boot_id; now } ->
       slot.summary <- Some partition;
       (match slot.boot with
        | Unseen -> slot.boot <- Booted boot_id
        | Booted seen when seen <> boot_id -> slot.boot <- Restarted
        | Booted _ | Restarted -> ());
       locked t (fun () -> t.now <- Time.max t.now now)
     | Wire.Err _ ->
       (* A refused or failed statement tells us nothing about the
          partition; forget the cached summary rather than guess. *)
       slot.summary <- None
     | _ -> ())
  | Error _ ->
    slot.reachable <- false;
    slot.summary <- None

(* A posted request: its slot's lock is held until its reply is
   collected or its [deadline] passes. *)
type flight = {
  index : int;  (* position in the caller's list *)
  slot : slot;
  conn : Client.t;
  sent : int;
  deadline : float;
}

(* How long a caller holding posted requests waits on their replies
   before it tries the slots it could not take again. *)
let retry_slots_s = 0.002

(* Every request to the shards (statement, heartbeat, trace, install,
   move) goes through here, on the caller's thread.  Each request is
   posted as soon as its slot's lock is free, and the replies are
   collected as they arrive (one [select] over the posted connections,
   each bounded by its connection's receive timeout), each slot
   released as soon as its reply is in.  A caller never blocks while it holds a slot: a
   busy slot, or one that would have to dial first, waits until the
   replies already posted are in (retried every [retry_slots_s]
   meanwhile), and only a caller holding nothing blocks on a lock or
   on a dial — so callers never wait on each other in a cycle, and a
   slow shard never stalls another shard's traffic.  A member whose
   post or collect fails, with an [Error] or an exception, is dropped
   (its next contact redials), and every other posted reply is still
   collected, so no connection keeps a stale frame.  Returns each
   contact's reply in the caller's order, with the instants its slot
   lock was requested and its reply collected.  A slot appears at most
   once. *)
let exchange t requests =
  let asked = Unix.gettimeofday () in
  let replies = Array.make (List.length requests) None in
  let answer index slot result =
    account t slot result;
    replies.(index) <-
      Some
        ( slot,
          Result.map (fun (resp, _, _) -> resp) result,
          asked,
          Unix.gettimeofday () )
  in
  let outstanding = ref [] in
  let settle f result =
    outstanding := List.filter (fun g -> g != f) !outstanding;
    if Result.is_error result then Member.drop f.slot.member;
    Mutex.unlock f.slot.slot_lock;
    answer f.index f.slot
      (Result.map (fun (resp, received) -> (resp, f.sent, received)) result)
  in
  (* Under the slot's lock: posts the request, or answers its failure
     and releases the slot. *)
  let post (index, (slot, request)) =
    let failed ~drop e =
      if drop then Member.drop slot.member;
      Mutex.unlock slot.slot_lock;
      answer index slot (Error e)
    in
    match
      Option.map
        (fun conn -> (conn, Client.post conn request))
        (Member.connection slot.member)
    with
    | Some (conn, Ok sent) ->
      let deadline = Unix.gettimeofday () +. Client.timeout conn in
      outstanding := { index; slot; conn; sent; deadline } :: !outstanding
    | Some (_, Error e) -> failed ~drop:true e
    | None -> failed ~drop:false "endpoint unavailable"
    | exception e -> failed ~drop:true (Printexc.to_string e)
  in
  let try_post ((_, (slot, _)) as contact) =
    if not (Mutex.try_lock slot.slot_lock) then false
    else if Member.would_dial slot.member then begin
      Mutex.unlock slot.slot_lock;
      false
    end
    else begin
      post contact;
      true
    end
  in
  (* Collects the replies that arrive within [wait]; a flight past its
     deadline answers a timeout. *)
  let await ~wait =
    let flights = !outstanding in
    let due = List.fold_left (fun acc f -> Float.min acc f.deadline) infinity flights in
    let ready =
      Client.ready
        (List.map (fun f -> f.conn) flights)
        ~timeout:(Float.min wait (due -. Unix.gettimeofday ()))
    in
    let now = Unix.gettimeofday () in
    List.iter
      (fun f ->
        if List.memq f.conn ready then settle f (Client.collect f.conn)
        else if f.deadline <= now then settle f (Error "receive timeout"))
      flights
  in
  let rec run pending =
    match List.filter (fun c -> not (try_post c)) pending, !outstanding with
    | [], [] -> ()
    | [], [ f ] -> settle f (Client.collect f.conn)
    | [], _ ->
      await ~wait:infinity;
      run []
    | ((_, (slot, _)) as contact) :: rest, [] ->
      Mutex.lock slot.slot_lock;
      post contact;
      run rest
    | pending, _ ->
      await ~wait:retry_slots_s;
      run pending
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> settle f (Error "fan-out abandoned")) !outstanding)
    (fun () -> run (List.mapi (fun i contact -> (i, contact)) requests));
  List.filter_map Fun.id (Array.to_list replies)

(* One request to one shard, with nothing to overlap it with. *)
let send t slot request =
  let _, reply, _, _ = List.hd (exchange t [ (slot, request) ]) in
  reply

(* The one coordinator-to-shard statement request, carrying the
   caller's trace context. *)
let shard_exec ?trace ~want sql =
  Wire.Shard_exec { sql; ctx = Option.map Wire.ctx_of_trace trace; want }

(* A rows-or-ack envelope as the plain response a client would get;
   [send] has already harvested its partition summary. *)
let unwrap = function
  | Wire.Shard_reply
      { body = Wire.Body_rows { columns; rows; texp_e; recomputed }; _ } ->
    Wire.Rows { columns; rows; texp_e; recomputed }
  | Wire.Shard_reply { body = Wire.Body_ack message; _ } -> Wire.Ok_msg message
  | r -> r

(* A statement on one shard; [Error] is a transport failure. *)
let exec_on ?trace t slot sql =
  Result.map unwrap (send t slot (shard_exec ?trace ~want:Wire.Want_rows sql))

(* ---------- the cluster catalog ---------- *)

let err message = Wire.Err { code = Wire.Exec_error; message }

let forward_to_any ?trace t sql =
  let rec go = function
    | [] -> err "no reachable shard"
    | slot :: rest ->
      (match exec_on ?trace t slot sql with
       | Ok reply -> reply
       | Error _ -> go rest)
  in
  go (slots t)

(* A zero-row scan: its reply names the table's columns. *)
let describe name = Printf.sprintf "SELECT * FROM %s LIMIT 0" name

(* The cluster catalog: cached CREATE TABLE columns, lazily recovered
   from a zero-row describe scan (single-table scans label columns with
   their bare DDL names, exactly what shard-side lowering sees) when
   this coordinator did not create the table itself. *)
let table_columns ?trace t name =
  match locked t (fun () -> Hashtbl.find_opt t.tables name) with
  | Some columns -> Some columns
  | None ->
    (match forward_to_any ?trace t (describe name) with
     | Wire.Rows { columns; _ } ->
       locked t (fun () -> Hashtbl.replace t.tables name columns);
       Some columns
     | _ -> None)

let coord_catalog ?trace t : Lower.catalog =
 fun name -> table_columns ?trace t name

(* ---------- key routing ---------- *)

(* Rows live on [Wire.shard_owner] of their first column, and hash
   partitions are disjoint: a partition holding no row with the queried
   key contributes nothing to the union rule's merge, so asking only the
   key's owner gives the broadcast's answer.  A pinned key routes only
   when every value [Value.cmp] equates with it hashes as it does:
   integral [Float]s within +-2^53 hash as their [Int]s, but [Int]s
   beyond 2^53 equal [Float]s of other hashes (2^53 + 1 equals 2^53.),
   and NaN equals every NaN bit pattern — those fall back to
   broadcast. *)
let routable = function
  | Value.Int n -> n >= -(1 lsl 53) && n <= 1 lsl 53
  | Value.Float f ->
    (not (Float.is_nan f))
    && ((not (Float.is_integer f)) || Float.abs f < 0x1p53)
  | Value.Str _ | Value.Bool _ | Value.Null -> true

(* The first-column values a lowered condition pins, [None] when it
   admits rows with any key: an equality pins its constant, a
   conjunction whatever either side pins, a disjunction the union when
   both sides pin (sqlx has no IN; an OR of points is its IN list). *)
let rec pins = function
  | Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Const v)
  | Predicate.Cmp (Predicate.Eq, Predicate.Const v, Predicate.Col 1) ->
    if routable v then Some [ v ] else None
  | Predicate.And (a, b) ->
    (match pins a with
     | Some _ as keys -> keys
     | None -> pins b)
  | Predicate.Or (a, b) ->
    (match (pins a, pins b) with
     | Some x, Some y -> Some (x @ y)
     | _ -> None)
  | _ -> None

let cond_keys ?trace t table cond =
  match table_columns ?trace t table with
  | None -> None
  | Some columns ->
    (match Interp.guard (fun () -> Lower.lower_cond_for_table ~columns ~table cond) with
     | Ok p -> pins p
     | Error _ -> None)

(* The keys a shard-local expression's rows can have.  A selection
   directly over a base table reads its key as [Col 1]; a projection
   keeps its input's base rows; a UNION contacts every operand's owners;
   an EXCEPT or INTERSECT answers a subset of its left operand's rows,
   and equal rows share a shard, so the left operand's keys route it. *)
let rec pinned_keys = function
  | Algebra.Select (p, Algebra.Base _) -> pins p
  | Algebra.Project (_, e) -> pinned_keys e
  | Algebra.Union (a, b) ->
    (match (pinned_keys a, pinned_keys b) with
     | Some x, Some y -> Some (x @ y)
     | _ -> None)
  | Algebra.Diff (a, _) | Algebra.Intersect (a, _) -> pinned_keys a
  | _ -> None

(* The shards a statement with [keys] may need: the keys' owners, or
   every shard without keys (callers pass none under [~prune:false],
   the forced broadcast).  The caller holds [t.state]. *)
let candidates t keys =
  match keys with
  | Some keys ->
    let ids = List.map (Wire.shard_owner t.map) keys in
    let chosen = List.filter (fun s -> List.mem s.shard.Wire.shard_id ids) t.slots in
    Obs.Instrument.Counter.add t.routed_total
      (max 0 (List.length t.slots - List.length chosen));
    chosen
  | None -> t.slots

(* ---------- scatter-gather ---------- *)

(* Can the coordinator prove, from its cached summary alone, that this
   shard's whole partition is empty at [tau]?  Either nothing was live
   at the last refresh (and only this coordinator inserts, each insert
   refreshing the summary), or everything live then expires by [tau].
   The min-texp bound [Relation.min_texp] lifted to the shard: here the
   dual max bound is the one that proves emptiness. *)
let prunable slot tau =
  match slot.summary with
  | None -> false
  | Some { Wire.live_rows; max_texp; _ } ->
    live_rows = 0 || Time.(max_texp <= tau)

(* The shards a query with [keys] at [tau] contacts: every candidate
   whose summary cannot prove its partition empty (all of them without
   [prune]); the rest count as pruned. *)
let contacts ~prune t keys tau =
  locked t (fun () ->
      let candidates = candidates t keys in
      if not prune then candidates
      else
        let contacted, pruned = List.partition (fun s -> not (prunable s tau)) candidates in
        List.iter (fun (_ : slot) -> Obs.Instrument.Counter.incr t.pruned_total) pruned;
        contacted)

let span_offset_us tr at =
  let us = (at -. Obs.Trace.started_at tr) *. 1e6 in
  if us < 0. then 0 else int_of_float us

(* The query's evaluation time: the cluster clock, or an explicit AT,
   refused before the clock as one node refuses it.
   @raise Failure on an AT in the past *)
let query_tau t (qs : Ast.query_stmt) =
  let now = locked t (fun () -> t.now) in
  Option.value (Interp.at_tau ~now qs.Ast.at) ~default:now

(* Fan each contact's request out through [exchange], under a
   [scatter] span with one [rpc:shard-<id>] span per contact, from its
   slot-lock request to its reply's collection.  The requests are built
   before the span opens, so the trace context they ship names the
   caller's span, not [scatter].  Replies come back in contact
   order. *)
let fan_out ?trace t requests =
  Obs.Trace.span trace scatter_span @@ fun () ->
  let replies = exchange t requests in
  Option.iter
    (fun tr ->
      List.iter
        (fun (slot, _, t0, t1) ->
          Obs.Trace.record tr
            ~name:slot.rpc_span
            ~start_us:(span_offset_us tr t0)
            ~duration_us:(int_of_float ((t1 -. t0) *. 1e6)))
        replies)
    trace;
  List.map (fun (slot, r, _, _) -> (slot, r)) replies

(* A shard that died or answered garbage mid-gather: surface one typed
   [Shard_failed] error naming the shard.  Partitions are disjoint, so
   a missing partial means a missing slice of the answer — there is no
   sound way to answer from the surviving shards. *)
let shard_failed slot message =
  Wire.Err
    { code = Wire.Shard_failed;
      message =
        Printf.sprintf "shard %d: %s" slot.shard.Wire.shard_id message
    }

(* Collect what [extract] finds in each reply, paired with its slot in
   contact order, short-circuiting on the first shard error.  An [Err]
   the shard itself sent passes through untouched (it is a
   statement-level verdict, e.g. a parse error); a transport failure or
   a reply [extract] rejects becomes [Shard_failed]. *)
let gather ~what extract replies =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (_, Ok (Wire.Err _ as e)) :: _ -> Error e
    | (slot, Ok reply) :: rest ->
      (match extract reply with
       | Some v -> go ((slot, v) :: acc) rest
       | None -> Error (shard_failed slot ("unexpected reply to " ^ what)))
    | (slot, Error msg) :: _ -> Error (shard_failed slot msg)
  in
  go [] replies

(* One statement fanned out to [contacted], one extracted body per
   shard. *)
let scatter ?trace t contacted ~want ~what sql extract =
  Result.map (List.map snd)
    (gather ~what extract
       (let request = shard_exec ?trace ~want sql in
        fan_out ?trace t (List.map (fun slot -> (slot, request)) contacted)))

let rows_body = function
  | Wire.Shard_reply
      { body = Wire.Body_rows { columns; rows; texp_e; recomputed }; _ } ->
    Some (columns, rows, texp_e, recomputed)
  | _ -> None

(* ---------- cluster horizon ---------- *)

(* Gather every shard's forward expiration forecast and roll it up.
   Hash partitions are disjoint, so each bucket of the merged report is
   a sum of disjoint row counts — bucket-wise addition is the exact
   cluster forecast, not an approximation (the test suite pins
   merged ≡ single-node as a qcheck law).  Never pruned: a shard whose
   partition is empty contributes an all-zero (still correct) partial,
   and the forecast must name every table.  The merged report carries
   the per-shard live-row breakdown. *)
let gather_horizon ?trace ?table t =
  let replies =
    fan_out ?trace t (List.map (fun slot -> (slot, Wire.Horizon table)) (slots t))
  in
  match
    gather ~what:"a horizon request"
      (function
        | Wire.Horizon_reply r -> Some r
        | _ -> None)
      replies
  with
  | Error e -> Error e
  | Ok [] -> Error (err "no shards")
  | Ok parts ->
    let shards =
      List.map
        (fun (slot, (r : Obs.Horizon.report)) ->
          ( string_of_int slot.shard.Wire.shard_id,
            List.fold_left (fun acc tb -> acc + Obs.Horizon.live tb) 0
              r.Obs.Horizon.tables ))
        parts
    in
    let merged = { (Obs.Horizon.merge_reports (List.map snd parts)) with shards } in
    (* Only the unfiltered forecast is the cluster-wide one the gauges
       and storm rules should read. *)
    if table = None then
      locked t (fun () -> t.last_horizon <- Some merged);
    Ok merged

let horizon ?table t =
  match gather_horizon ?table t with
  | Ok _ as ok -> ok
  | Error (Wire.Err { message; _ }) -> Error message
  | Error _ -> Error "unexpected reply to a horizon request"

(* ---------- routed writes and broadcasts ---------- *)

let slot_for t shard_id =
  List.find_opt (fun s -> s.shard.Wire.shard_id = shard_id) (slots t)

(* A routed write: exactly one shard — the key's owner — is contacted;
   its ack piggybacks the refreshed summary, so an insert into a shard
   the coordinator believed empty immediately un-prunes it. *)
let route_insert ?trace t ~key sql =
  let owner = Wire.shard_owner (shard_map t) key in
  match slot_for t owner with
  | None -> err (Printf.sprintf "no slot for owner shard %d" owner)
  | Some slot ->
    (match exec_on ?trace t slot sql with
     | Ok reply -> reply
     | Error msg -> err msg)

(* Send a statement to every one of [targets] in one fan-out; when
   any fails, the answer names each failed shard with its message (the
   others have applied it).  There is no cross-shard atomicity —
   cluster v1 trades transactions for the expiration calculus, which
   needs none. *)
let broadcast ?trace t targets sql ~merge =
  let request = shard_exec ?trace ~want:Wire.Want_rows sql in
  let replies = fan_out ?trace t (List.map (fun slot -> (slot, request)) targets) in
  match
    List.filter_map
      (function
        | slot, (Ok (Wire.Err { message; _ }) | Error message) ->
          Some (Printf.sprintf "shard %d: %s" slot.shard.Wire.shard_id message)
        | _, Ok _ -> None)
      replies
  with
  | [] ->
    merge (List.map (fun (slot, reply) -> (slot, unwrap (Result.get_ok reply))) replies)
  | failures -> err (String.concat "; " failures)

let merge_acks replies =
  match replies with
  | (_, Wire.Ok_msg message) :: _ ->
    Wire.Ok_msg
      (Printf.sprintf "%s (on %d shard(s))" message (List.length replies))
  | _ -> err "unexpected reply to a broadcast statement"

(* DELETE and VACUUM acks lead with a per-shard row count
   ("4 tuple(s) deleted"); the cluster's count is their sum. *)
let merge_counts replies =
  let count = function
    | _, Wire.Ok_msg message ->
      (try Scanf.sscanf message "%d %[^\n]" (fun n rest -> Some (n, rest))
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    | _ -> None
  in
  match List.filter_map count replies with
  | (_, rest) :: _ as counts when List.compare_lengths counts replies = 0 ->
    let total = List.fold_left (fun acc (n, _) -> acc + n) 0 counts in
    Wire.Ok_msg
      (Printf.sprintf "%d %s (on %d shard(s))" total rest
         (List.length replies))
  | _ -> merge_acks replies

let merge_texts replies =
  Wire.Ok_msg
    (String.concat "\n"
       (List.map
          (fun (slot, reply) ->
            let body =
              match reply with
              | Wire.Ok_msg message -> message
              | other -> Wire.render_response other
            in
            Printf.sprintf "--- shard %d ---\n%s" slot.shard.Wire.shard_id
              body)
          replies))

(* ---------- distributed joins and the gather fallback ---------- *)

(* A table's complete, cluster-wide contents with per-row texps —
   partitions are disjoint, so plain concatenation is the union. *)
let gather_table_rows ?trace t name =
  Result.map
    (List.concat_map (fun (_, rows, _, _) -> rows))
    (scatter ?trace t (slots t) ~want:Wire.Want_rows ~what:"a query"
       (Printf.sprintf "SELECT * FROM %s" name)
       rows_body)

(* Everything no shard can answer alone (joins that are not
   co-partitioned, EXCEPT/INTERSECT over projections that drop the key,
   aggregates over joins): gather every base table's rows, rebuild them
   in a throwaway single-node session synchronised to the cluster clock,
   and let the full single-node engine answer.  Correct for anything it
   can express — the session holds exactly the cluster's live rows with
   their original texps, and the union of disjoint partitions needs no
   texp merge — at the cost of shipping each table once.  For a join,
   one haul per table costs less than shipping the smaller side to
   every shard and re-planning there. *)
let gather_compute ?trace t (qs : Ast.query_stmt) tables =
  Obs.Instrument.Counter.incr t.fanouts_total;
  let local = Interp.create () in
  let load =
    List.fold_left
      (fun acc name ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
          (match table_columns ?trace t name with
           | None -> Error (err (Printf.sprintf "unknown table %s" name))
           | Some columns ->
             (match Interp.exec local (Ast.Create_table (name, columns)) with
              | Error m -> Error (err m)
              | Ok _ ->
                (match gather_table_rows ?trace t name with
                 | Error e -> Error e
                 | Ok rows ->
                   List.iter
                     (fun (vs, texp) ->
                       Interp.write local
                         (Expirel_storage.Wal.Insert
                            { table = name; tuple = Tuple.of_list vs; texp }))
                     rows;
                   Ok ()))))
      (Ok ()) tables
  in
  match load with
  | Error e -> Error e
  | Ok () ->
    let clocked =
      match Time.to_int_opt (locked t (fun () -> t.now)) with
      | Some n when n > 0 ->
        Result.map ignore (Interp.exec local (Ast.Advance_to n))
      | _ -> Ok ()
    in
    Result.map_error err
      (Result.bind clocked (fun () -> Interp.exec local (Ast.Query qs)))

(* ---------- the read route ---------- *)

(* The merged rows presented as a single node presents its own: ORDER
   BY, the full-tuple tie-break, then LIMIT.  Each shard cut its own
   answer the same way, so its first [n] rows hold every row of the
   global first [n] that lives there. *)
let present (qs : Ast.query_stmt) ~columns ~recomputed (relation, texp_e) =
  let present =
    Interp.order_and_limit ~columns ~order_by:qs.Ast.order_by ~limit:qs.Ast.limit
  in
  Ok (Interp.Rows { columns; relation; listing = lazy (present relation); texp_e; recomputed })

let relation_of ~arity rows =
  Relation.of_list ~arity (List.map (fun (vs, e) -> (Tuple.of_list vs, e)) rows)

let sketch_ok = function
  | Ok s -> s
  | Error m -> failwith ("sketch partials: " ^ m)

(* The coordinator's half of a fan-out, under a [merge] span; a
   statement error it raises answers as one node's would, through the
   node's one mapping. *)
let merging ?trace merge =
  Obs.Trace.span trace merge_span @@ fun () ->
  match Interp.guard merge with
  | Ok answer -> answer
  | Error message -> Error (err message)

(* A repeated GROUP BY COUNT over every shard, kept at the coordinator:
   each shard is asked with the version of the groups it last shipped
   on this coordinator's connection, and answers only the groups
   changed since — written, or crossed by their nu — condensed as the
   stateless route ships them (all of them when it holds no such
   version: a text's second read, a restarted shard, a redialled
   connection; a rebuilt entry's delta names all of them).  Each reply
   writes into this coordinator's copy of that shard's groups: a full
   reply rebuilds it, a delta replaces the groups it names (a
   slice-less one is gone), and a condensed reply (the shard kept no
   standing entry yet) seeds it at version 0, so its next reply is
   whole again.  A shard the read prunes holds nothing live, so its
   copy empties.  Versions count from 1 on each connection, and a
   redial reuses the slot: a copy names only a version whose reply it
   recorded, so a read that records none (a failed gather, a catalog
   change under it) drops every contacted shard's copy to version 0.
   Each group a reply touched is merged again from the shards' copies
   ({!Partial_agg.merge_all}, the stateless route's merge), and only
   those groups are re-finalised ({!Subscription.regroup}).  Every group stands at its own shard's
   clock, as the stateless route reads it.  [None]: a catalog change
   landed under the read, which must be answered the stateless way. *)
let standing_step ?trace t e (qs : Ast.query_stmt) sql ~columns ~tau =
  Obs.Instrument.Counter.incr t.fanouts_total;
  let contacted = contacts ~prune:true t None tau in
  let held slot =
    let id = slot.shard.Wire.shard_id in
    match Hashtbl.find_opt e.held id with
    | Some h -> h
    | None ->
      let h = { version = 0; groups = Groups.empty } in
      Hashtbl.replace e.held id h;
      h
  in
  let requests =
    List.map
      (fun slot ->
        (slot, shard_exec ?trace ~want:(Wire.Want_agg (Some (held slot).version)) sql))
      contacted
  in
  let unrecorded () = List.iter (fun slot -> (held slot).version <- 0) contacted in
  match
    gather ~what:"an aggregate request"
      (function
        | Wire.Shard_reply { body = Wire.Body_agg { groups; held; child_texp; _ }; _ } ->
          Some (groups, held, child_texp)
        | _ -> None)
      (fan_out ?trace t requests)
  with
  | Error reply ->
    unrecorded ();
    Some (Error reply)
  | Ok _ when locked t (fun () -> t.epoch <> e.epoch) ->
    unrecorded ();
    None
  | Ok parts ->
    Some
      (merging ?trace @@ fun () ->
       (* The keys each reply and each emptied copy touched, each list
          ascending as replies and copies hold their groups. *)
       let touched = ref [] in
       let touch keys = touched := keys :: !touched in
       (* A reply's groups written into its shard's copy, emptied first
          when the reply is [whole]; a slice-less group is gone. *)
       let write h ~whole groups version =
         if whole then begin
           touch (List.rev (Groups.fold (fun key _ keys -> key :: keys) h.groups []));
           h.groups <- Groups.empty
         end;
         touch (List.map (fun (g : Partial_agg.group) -> g.key) groups);
         h.groups <-
           Groups.patch h.groups
             (List.map
                (fun (g : Partial_agg.group) ->
                  (g.key, if g.slices = [] then None else Some g))
                groups);
         h.version <- version
       in
       Hashtbl.iter
         (fun id h ->
           if not (List.exists (fun (s, _) -> s.shard.Wire.shard_id = id) parts) then
             write h ~whole:true [] 0)
         e.held;
       List.iter
         (fun (slot, (groups, held_groups, _)) ->
           match held_groups with
           | None -> write (held slot) ~whole:true groups 0
           | Some { Wire.full; version } -> write (held slot) ~whole:full groups version)
         parts;
       (* Two ascending lists as one, each key once: [key] of an
          element, and [same] joining two elements of one key. *)
       let rec union key same a b =
         match a, b with
         | [], l | l, [] -> l
         | x :: a', y :: b' ->
           let c = Groups.compare_keys (key x) (key y) in
           if c < 0 then x :: union key same a' b
           else if c > 0 then y :: union key same a b'
           else same x y :: union key same a' b'
       in
       let copies = Hashtbl.fold (fun _ h copies -> h.groups :: copies) e.held [] in
       let keys = List.fold_left (union Fun.id (fun k _ -> k)) [] !touched in
       let largest = List.fold_left (fun n c -> max n (Groups.cardinal c)) 0 copies in
       (* Every key's groups in the copies, in one ordered pass. *)
       let every () =
         List.map (fun c -> List.rev (Groups.fold (fun _ g gs -> [ g ] :: gs) c [])) copies
         |> List.fold_left (union (fun gs -> (List.hd gs).Partial_agg.key) ( @ )) []
       in
       (* A read that touched as many groups as the largest copy holds
          re-finalises every group at once, as the stateless route
          merges and finalises its partials; any other re-finalises the
          groups it touched. *)
       let counts =
         if List.compare_length_with keys largest >= 0 then
           Subscription.rebuild e.counts (List.filter_map Partial_agg.merge_counts (every ()))
         else
           let merged key =
             (key, Partial_agg.merge_counts (List.filter_map (Groups.find_opt key) copies))
           in
           fst (Subscription.regroup e.counts (List.map merged keys))
       in
       e.counts <- counts;
       let kept = List.filter_map (fun (_, (_, h, _)) -> h) parts in
       if parts <> [] && List.compare_lengths kept parts = 0 then
         Obs.Instrument.Counter.incr
           (if List.exists (fun (h : Wire.held_groups) -> h.full) kept then
              t.agg_full_reads_total
            else t.agg_delta_reads_total);
       let { Eval.relation; texp } = Subscription.counts_answer counts in
       present qs ~columns ~recomputed:false
         (relation, Time.min_list (texp :: List.map (fun (_, (_, _, e)) -> e) parts)))

(* A text's first read (or its first since an eviction or a catalog
   change) only makes its entry and is answered the stateless way, with
   the shards' condensed groups: a text read once costs what it did
   without the entry, and only a text read again names a version. *)
let standing_read ?trace t qs sql (d : Lower.decomposed) ~child_arity ~columns ~tau
    ~stateless =
  let entry =
    locked t (fun () ->
        match Expirel_exec.Lru.find t.kept sql with
        | Some e when e.epoch = t.epoch -> Some e
        | Some _ | None ->
          let e =
            { lock = Mutex.create ();
              epoch = t.epoch;
              held = Hashtbl.create 4;
              counts =
                Subscription.counts
                  ~output:
                    (Partial_agg.finalizer ~group:d.Lower.d_group ~func:d.Lower.d_func
                       ~child_arity ?having:d.Lower.d_having
                       ~projection:d.Lower.d_projection)
                  ~distinct:
                    (Partial_agg.distinct_rows ~group:d.Lower.d_group
                       ~projection:d.Lower.d_projection)
                  ~arity:(List.length columns)
            }
          in
          Expirel_exec.Lru.set t.kept sql e;
          None)
  in
  match
    Option.bind entry (fun e ->
        Mutex.protect e.lock (fun () ->
            standing_step ?trace t e qs sql ~columns ~tau))
  with
  | Some reply -> reply
  | None -> stateless ()

(* [q]'s lowering and route, through the statement cache: as cached
   when the planned literals are the lowering's, with its constants
   replaced when only condition values differ (the route is then
   re-derived: a pinned key follows its literal), made afresh at a
   new catalog epoch or on a miss.
   @raise Lower.Error as {!Lower.lower_query} *)
let lowered ?trace t (p : lowered Statement_cache.prepared) q =
  let catalog = coord_catalog ?trace t in
  let epoch = locked t (fun () -> t.epoch) in
  let made compiled =
    let route = Lower.route ~catalog compiled in
    Statement_cache.store t.statements p
      { l_epoch = epoch; l_compiled = compiled; l_route = route; l_literals = p.literals };
    (compiled, route)
  in
  match
    Statement_cache.reuse t.statements p
      ~current:(fun l -> l.l_epoch = epoch)
      ~literals:(fun l -> l.l_literals)
  with
  | Statement_cache.As_is l -> (l.l_compiled, l.l_route)
  | Statement_cache.Rebound (l, f) ->
    made
      { l.l_compiled with
        Lower.expr = Algebra.map_preds (Predicate.map_consts f) l.l_compiled.Lower.expr
      }
  | Statement_cache.Absent -> made (Lower.lower_query ~catalog q)

(* A query, lowered once through the cluster catalog and answered by
   the route {!Lower.route} picks.  The three fan-out routes ask the
   owners of the keys the query pins (every shard when none) whose
   partitions can still hold live rows at the query's tau; they differ
   only in what a shard ships and how the coordinator merges it:

   - [Scatter]: rows, merged under the union rule — per duplicate tuple
     the max texp (Eq (4)), texp(e) the min over partials; exact for
     disjoint hash partitions.
   - [Partial]: expiration-slice partials of a grouped aggregate
     ([Executor.partial] on each shard); groups unite by key, slices by
     expiration time, counts and sums add, extrema extremise, and the
     coordinator runs the {e same} finalisation a single node runs, so
     rows, per-row texps and the change point nu come out identical.
     AVG travels as SUM and COUNT and is divided once, here.
   - [Sketch]: serialised sketch partials, merged (sketches are
     shard-decomposable by construction) and read at tau.  A sketch
     keeps the whole expiration axis, so AT is applied here; texp(e) is
     the merged sketch's horizon.

   With no shard left to ask, the merge runs over no partials: the
   lowering already named the columns.  [Gather] computes at the
   coordinator over the gathered base tables. *)
let read ?trace ~prune t (p : lowered Statement_cache.prepared) (qs : Ast.query_stmt) sql =
  match
    Interp.guard (fun () ->
        let tau = query_tau t qs in
        let compiled, route = lowered ?trace t p qs.Ast.q in
        (tau, compiled, route))
  with
  | Error message -> Error (err message)
  | Ok (tau, compiled, route) ->
    let columns = compiled.Lower.columns in
    let arity = List.length columns in
    let fan ~child ~want ~what extract merge =
      Obs.Instrument.Counter.incr t.fanouts_total;
      let keys = if prune then pinned_keys child else None in
      match scatter ?trace t (contacts ~prune t keys tau) ~want ~what sql extract with
      | Error e -> Error e
      | Ok parts -> merging ?trace (fun () -> merge parts)
    in
    (match route with
     | Lower.Gather ->
       gather_compute ?trace t qs (Algebra.base_names compiled.Lower.expr)
     | Lower.Scatter ->
       fan ~child:compiled.Lower.expr ~want:Wire.Want_rows ~what:"a query"
         rows_body (fun parts ->
           let relation =
             List.fold_left
               (fun acc (_, rows, _, _) ->
                 Relation.union_max acc (relation_of ~arity rows))
               (Relation.empty ~arity) parts
           in
           present qs ~columns
             ~recomputed:(List.exists (fun (_, _, _, r) -> r) parts)
             (relation, Time.min_list (List.map (fun (_, _, e, _) -> e) parts)))
     | Lower.Partial d ->
       let child_arity =
         match Algebra.base_names d.Lower.d_child with
         | [ name ] ->
           Option.fold ~none:0 ~some:List.length (table_columns ?trace t name)
         | _ -> 0
       in
       let finalize parts =
         let partials, child_texps = List.split parts in
         let relation, invalidation =
           Partial_agg.finalize ~group:d.Lower.d_group ~func:d.Lower.d_func
             ~child_arity ?having:d.Lower.d_having
             ~projection:d.Lower.d_projection
             (Partial_agg.merge_all ~func:d.Lower.d_func partials)
         in
         present qs ~columns ~recomputed:false
           (relation, Time.min_list (invalidation :: child_texps))
       in
       let stateless () =
         fan ~child:d.Lower.d_child ~want:(Wire.Want_agg None)
           ~what:"an aggregate request"
           (function
             | Wire.Shard_reply
                 { body = Wire.Body_agg { groups; child_texp; _ }; _ } ->
               Some (groups, child_texp)
             | _ -> None)
           finalize
       in
       if
         prune && qs.Ast.at = None
         && d.Lower.d_func = Aggregate.Count
         && pinned_keys d.Lower.d_child = None
       then standing_read ?trace t qs sql d ~child_arity ~columns ~tau ~stateless
       else stateless ()
     | Lower.Sketch spec ->
       fan ~child:compiled.Lower.expr ~want:Wire.Want_sketch
         ~what:"a sketch request" (function
         | Wire.Shard_reply { body = Wire.Body_sketch { payload; _ }; _ } ->
           Some payload
         | _ -> None)
         (fun payloads ->
           let merged =
             match
               List.map (fun p -> sketch_ok (Sketch.Any.of_string p)) payloads
             with
             | [] -> Expirel_exec.Approx.build spec ~arity ignore
             | s :: rest ->
               List.fold_left
                 (fun acc s' -> sketch_ok (Sketch.Any.merge acc s'))
                 s rest
           in
           let rows, horizon = Sketch.Any.query_rows ~tau merged in
           present qs ~columns ~recomputed:false
             (relation_of ~arity rows, horizon)))

(* ---------- heartbeat ---------- *)

let heartbeat_now t =
  ignore (exchange t (List.map (fun slot -> (slot, Wire.Shard_ping)) (slots t)))

let rec heartbeat_loop t =
  if not t.stopping then begin
    Thread.delay t.heartbeat_interval;
    if not t.stopping then begin
      heartbeat_now t;
      heartbeat_loop t
    end
  end

(* ---------- construction ---------- *)

let make_slot t (shard : Wire.shard) =
  { shard;
    member =
      Member.create
        { host = shard.Wire.shard_host; port = shard.Wire.shard_port };
    slot_lock = Mutex.create ();
    requests =
      Obs.Instrument.Family.labelled t.requests_family
        [ string_of_int shard.Wire.shard_id ];
    rpc_span =
      Obs.Trace.name (Printf.sprintf "rpc:shard-%d" shard.Wire.shard_id);
    summary = None;
    boot = Unseen;
    reachable = false;
  }

(* Why a shard's reply is not the one asked for. *)
let reason = function
  | Wire.Err { message; _ } -> message
  | reply -> "unexpected reply " ^ Wire.render_response reply

(* One fan-out of [requests], each answered by [ok] ([step] names it in
   the error): [Error] names every shard that failed. *)
let each_ok t ~step ok requests =
  match
    List.filter_map
      (fun (slot, reply, _, _) ->
        match reply with
        | Ok reply when ok reply -> None
        | Ok reply ->
          Some (Printf.sprintf "%s on shard %d: %s" step slot.shard.Wire.shard_id (reason reply))
        | Error e -> Some (Printf.sprintf "%s on shard %d: %s" step slot.shard.Wire.shard_id e))
      (exchange t requests)
  with
  | [] -> Ok ()
  | failures -> Error (String.concat "; " failures)

let create ?(node_name = "coordinator") ?health_rules
    ?(heartbeat_interval = 0.25) ~shards:endpoints () =
  (match endpoints with
   | [] -> invalid_arg "Coordinator.create: no shards"
   | _ -> ());
  let map =
    { Wire.map_version = 1;
      shards =
        List.mapi
          (fun i (e : endpoint) ->
            { Wire.shard_id = i; shard_host = e.host; shard_port = e.port })
          endpoints
    }
  in
  let loop =
    Loop.create ~node_name ~max_connections:Server.default_config.max_connections
      ~request_timeout:Server.default_config.request_timeout
      ~health_rules:
        (Option.value health_rules
           ~default:(default_health_rules ~shards:(List.length endpoints)))
      ()
  in
  let registry = Metrics.registry (Loop.metrics loop) in
  let counter name help = Obs.Registry.counter registry ~name ~help in
  let t =
    { loop;
      requests_family =
        Obs.Registry.counter_family registry
          ~name:"expirel_cluster_shard_requests_total"
          ~help:"Requests routed to each shard" ~labels:[ "shard" ];
      pruned_total =
        counter "expirel_cluster_pruned_shards_total"
          "Shards skipped from a fan-out because their cached partition \
           summary proved them empty at the query's tau";
      routed_total =
        counter "expirel_cluster_routed_total"
          "Shard contacts skipped because the statement's WHERE pins the \
           partitioning column to keys those shards do not own";
      fanouts_total = counter "expirel_cluster_fanouts_total" "Scatter-gather queries executed";
      messages_total =
        counter "expirel_cluster_messages_total" "Coordinator-to-shard requests sent";
      bytes_sent_total =
        counter "expirel_cluster_bytes_sent_total"
          "Bytes of encoded requests sent to shards (framing included)";
      bytes_received_total =
        counter "expirel_cluster_bytes_received_total"
          "Bytes of encoded replies received from shards (framing included)";
      agg_delta_reads_total =
        counter "expirel_cluster_agg_delta_reads_total"
          "Repeated GROUP BY COUNT reads every shard answered with only the \
           groups changed since the version the coordinator holds";
      agg_full_reads_total =
        counter "expirel_cluster_agg_full_reads_total"
          "Kept GROUP BY COUNT reads at least one shard answered with every \
           group (a text's second read, a rebuilt, evicted or restarted shard \
           entry)";
      state = Mutex.create ();
      tables = Hashtbl.create 16;
      indexes = Hashtbl.create 16;
      map;
      slots = [];
      rebalance = Expirel_storage.Rwlock.create ();
      now = Time.zero;
      kept = Expirel_exec.Lru.create ~capacity:Interp.statement_capacity ();
      epoch = 0;
      statements = Statement_cache.create ~capacity:Interp.statement_capacity ();
      last_horizon = None;
      hb_thread = None;
      stopping = false;
      heartbeat_interval
    }
  in
  Obs.Registry.gauge_fun registry ~name:"expirel_cluster_shard_map_version"
    ~help:"Version of the shard map this coordinator routes by" (fun () ->
      float_of_int (shard_map t).Wire.map_version);
  Obs.Registry.gauge_fun registry ~name:"expirel_cluster_shards"
    ~help:"Shards in the current map" (fun () ->
      float_of_int (List.length (slots t)));
  Obs.Registry.gauge_fun registry ~name:"expirel_cluster_unreachable_shards"
    ~help:"Shards that did not answer their last contact or heartbeat"
    (fun () ->
      float_of_int
        (List.length (List.filter (fun s -> not s.reachable) (slots t))));
  Obs.Registry.gauge_fun registry ~name:"expirel_cluster_restarted_shards"
    ~help:"Shards whose heartbeat brought another boot id than their first \
           heartbeat since they joined"
    (fun () ->
      float_of_int
        (List.length (List.filter (fun s -> s.boot = Restarted) (slots t))));
  (* Cluster-horizon gauges read the cached merged forecast — a scrape
     never fans out.  While no forecast has been gathered yet the
     callbacks raise, which the registry renders as an absent metric
     (and the storm rules therefore skip, not fire). *)
  let cached () =
    match locked t (fun () -> t.last_horizon) with
    | Some r -> r
    | None -> raise Not_found
  in
  Obs.Registry.gauge_fun registry ~name:"expirel_cluster_live_rows"
    ~help:"Live rows across the cluster at the last horizon gather"
    (fun () ->
      let r = cached () in
      float_of_int
        (List.fold_left (fun acc tb -> acc + Obs.Horizon.live tb) 0
           r.Obs.Horizon.tables));
  Obs.Registry.gauge_fun registry
    ~name:"expirel_cluster_horizon_expiring_soon"
    ~help:"Live rows across the cluster expiring within the forecast \
           window, from the last horizon gather"
    (fun () ->
      let r = cached () in
      float_of_int
        (List.fold_left
           (fun acc tb -> acc + Obs.Horizon.expiring_within tb r.Obs.Horizon.window)
           0 r.Obs.Horizon.tables));
  Obs.Registry.gauge_fun registry
    ~name:"expirel_cluster_horizon_fanout_events"
    ~help:"Subscription events the next ADVANCE window delivers across \
           the cluster, from the last horizon gather"
    (fun () -> float_of_int (cached ()).Obs.Horizon.fanout_events);
  t.slots <- List.map (make_slot t) map.Wire.shards;
  (* Prime the clock mirror, the summaries and the boot ids. *)
  heartbeat_now t;
  if heartbeat_interval > 0. then
    t.hb_thread <- Some (Thread.create (fun () -> heartbeat_loop t) ());
  t

let close t =
  Loop.stop t.loop;
  t.stopping <- true;
  (match t.hb_thread with
   | Some th ->
     t.hb_thread <- None;
     Thread.join th
   | None -> ());
  List.iter (fun slot -> Member.close slot.member) (slots t)

(* ---------- observability surface ---------- *)

let metrics t = Metrics.prometheus (Loop.metrics t.loop)

let health t =
  (* Refresh the horizon cache first so the predictive storm rules read
     the present forecast, not a stale one; an unreachable fleet leaves
     the cache as it was (the rules then skip or read old evidence,
     while the reachability rules fire). *)
  (match gather_horizon t with Ok _ | Error _ -> ());
  Loop.health t.loop

let trace_store t = Loop.trace_store t.loop

(* The cluster-wide trace view: this coordinator's entries merged with
   every shard's recent entries, newest first — one trace id read here
   shows the coordinator lane plus a lane per contacted shard. *)
let recent_traces t n =
  let own = Obs.Trace_store.recent (trace_store t) n in
  let remote =
    List.concat_map
      (function
        | _, Ok (Wire.Traces_reply entries) -> entries
        | _ -> [])
      (fan_out t (List.map (fun slot -> (slot, Wire.Trace_recent n)) (slots t)))
  in
  List.stable_sort
    (fun (a : Obs.Trace_store.entry) b -> Float.compare b.started_at a.started_at)
    (own @ remote)

let traffic t =
  { fanouts = Obs.Instrument.Counter.value t.fanouts_total;
    pruned = Obs.Instrument.Counter.value t.pruned_total;
    messages = Obs.Instrument.Counter.value t.messages_total;
    bytes_sent = Obs.Instrument.Counter.value t.bytes_sent_total;
    bytes_received = Obs.Instrument.Counter.value t.bytes_received_total
  }

let summaries t =
  List.map
    (fun s -> (s.shard.Wire.shard_id, s.summary, s.reachable))
    (slots t)

(* ---------- rebalancing ---------- *)

let table_names t =
  match forward_to_any t "SHOW TABLES" with
  | Wire.Ok_msg "(no tables)" -> Ok []
  | Wire.Ok_msg text -> Ok (String.split_on_char '\n' text)
  | Wire.Err { message; _ } -> Error message
  | _ -> Error "unexpected reply to SHOW TABLES"

(* Every row to its owner under [new_map], one table at a time, the
   owner decided here: one fan-out reads each source's partition
   ([SELECT *]), one loads the rows leaving it at their new owners, and
   only once every load is acknowledged one deletes them at their
   sources.  The deletes run last, so a move cut before them loses no
   row but can leave copies where the old map reads them (at an old
   shard): scans and point reads absorb those, COUNT and grouped
   partials count them twice.  A source's partition of a table comes
   back in one reply, so it is bounded by the frame
   ([Frame.max_frame]). *)
let move_rows t new_map ~old_slots ~new_slots =
  let ( let* ) = Result.bind in
  let* tables = table_names t in
  let acked = function
    | Wire.Shard_reply { body = Wire.Body_ack _; _ } -> true
    | _ -> false
  in
  let move moved table =
    let* moved = moved in
    let read = shard_exec ~want:Wire.Want_rows (Printf.sprintf "SELECT * FROM %s" table) in
    let* parts =
      Result.map_error
        (fun e -> Printf.sprintf "read %s: %s" table (reason e))
        (gather ~what:"a move's read" rows_body
           (fan_out t (List.map (fun slot -> (slot, read)) old_slots)))
    in
    (* (source, owner, row) of each row whose owner changed *)
    let leaving =
      List.concat_map
        (fun (source, (_, rows, _, _)) ->
          List.filter_map
            (fun ((values, _) as row) ->
              match values with
              | [] -> None
              | key :: _ ->
                let owner = Wire.shard_owner new_map key in
                if owner = source.shard.Wire.shard_id then None else Some (source, owner, row))
            rows)
        parts
    in
    (* One [Move_rows] to each of [slots] that [pick] finds rows for. *)
    let each slots pick request =
      List.filter_map
        (fun slot ->
          match List.filter_map (pick slot) leaving with
          | [] -> None
          | rows -> Some (slot, request rows))
        slots
    in
    let* () =
      each_ok t ~step:("load " ^ table) acked
        (each new_slots
           (fun slot (_, owner, row) -> if owner = slot.shard.Wire.shard_id then Some row else None)
           (fun add -> Wire.Move_rows { table; add; remove = [] }))
    in
    let* () =
      each_ok t ~step:("delete " ^ table) acked
        (each old_slots
           (fun slot (source, _, (values, _)) -> if source == slot then Some values else None)
           (fun remove -> Wire.Move_rows { table; add = []; remove }))
    in
    Ok (moved + List.length leaving)
  in
  List.fold_left move (Ok 0) tables

(* [move_rows], then the map: success swaps it in, a failure leaves the
   old map routing.  Either way every kept GROUP BY drops: its copies
   are of partitions the move changed. *)
let apply_map t new_map ~old_slots ~new_slots =
  let result = move_rows t new_map ~old_slots ~new_slots in
  locked t (fun () ->
      t.epoch <- t.epoch + 1;
      if Result.is_ok result then begin
        t.map <- new_map;
        t.slots <- new_slots;
        (* A map change redefines every partition, so every cached
           summary is about the wrong partition now: forget them all
           (unknown is never pruned) and re-prime with a heartbeat
           round. *)
        List.iter (fun s -> s.summary <- None) new_slots
      end);
  if Result.is_ok result then begin
    heartbeat_now t;
    List.iter (fun s -> if not (List.memq s new_slots) then Member.close s.member) old_slots
  end;
  result

(* Each move holds the rebalance write side from its first step
   through the map swap: it waits out the statements in flight, and the
   statements issued meanwhile wait for it. *)
let add_shard t endpoint =
  Expirel_storage.Rwlock.with_write t.rebalance @@ fun () ->
  let old_map = shard_map t in
  let old_slots = slots t in
  let fresh_id =
    1
    + List.fold_left
        (fun acc (s : Wire.shard) -> max acc s.shard_id)
        (-1) old_map.Wire.shards
  in
  let new_map =
    { Wire.map_version = old_map.Wire.map_version + 1;
      shards =
        old_map.Wire.shards
        @ [ { Wire.shard_id = fresh_id;
              shard_host = endpoint.host;
              shard_port = endpoint.port
            }
          ]
    }
  in
  let new_slots =
    old_slots
    @ [ make_slot t
          { Wire.shard_id = fresh_id;
            shard_host = endpoint.host;
            shard_port = endpoint.port
          }
      ]
  in
  (* The joining shard needs the cluster's catalog and clock before it
     can ingest: replay each table's CREATE TABLE, with the columns the
     cluster catalog knows ([table_columns]), and the CREATE INDEXes
     this coordinator broadcast on the newcomer, then sync its clock so
     ingested expiration times mean the same thing there.  A table the
     newcomer has with those columns (a failed ADD SHARD of the same
     node made it) is kept, so the ADD can be retried, but emptied: the
     failed move may have loaded rows there that were deleted through
     the old map since, and no map routes to the newcomer yet.  A
     CREATE INDEX it has already rebuilds it, and ADVANCE TO its own
     clock is a no-op. *)
  let newcomer = List.nth new_slots (List.length new_slots - 1) in
  let prep =
    let ( let* ) = Result.bind in
    let run acc sql =
      let* () = acc in
      match exec_on t newcomer sql with
      | Ok (Wire.Ok_msg _) -> Ok ()
      | Ok (Wire.Err { message; _ }) | Error message ->
        Error (Printf.sprintf "%s on joining shard: %s" sql message)
      | Ok _ -> Error ("unexpected reply to " ^ sql)
    in
    let ddl acc table =
      let* acc = acc in
      match table_columns t table with
      | Some columns ->
        let index (on, column) () acc =
          if on = table then Printf.sprintf "CREATE INDEX ON %s (%s)" table column :: acc
          else acc
        in
        let* create =
          match exec_on t newcomer (describe table) with
          | Ok (Wire.Rows { columns = have; _ }) when have = columns ->
            Ok [ "DELETE FROM " ^ table ]
          | Ok (Wire.Rows { columns = have; _ }) ->
            Error
              (Printf.sprintf "table %s on joining shard has columns (%s)" table
                 (String.concat ", " have))
          | Ok _ | Error _ ->
            Ok [ Printf.sprintf "CREATE TABLE %s (%s)" table (String.concat ", " columns) ]
        in
        Ok (acc @ create @ locked t (fun () -> Hashtbl.fold index t.indexes []))
      | None -> Error (Printf.sprintf "describe %s: no shard answered" table)
    in
    let* tables = table_names t in
    let* statements = List.fold_left ddl (Ok []) tables in
    List.fold_left run (Ok ())
      (match Time.to_int_opt (locked t (fun () -> t.now)) with
       | Some n when n > 0 -> statements @ [ Printf.sprintf "ADVANCE TO %d" n ]
       | _ -> statements)
  in
  let result = Result.bind prep (fun () -> apply_map t new_map ~old_slots ~new_slots) in
  (* A failed ADD keeps no connection to the node: it may be retried. *)
  if Result.is_error result then Member.close newcomer.member;
  Result.map
    (Printf.sprintf "shard %d joined (map v%d, %d row(s) moved)" fresh_id
       new_map.Wire.map_version)
    result

let remove_shard t shard_id =
  Expirel_storage.Rwlock.with_write t.rebalance @@ fun () ->
  let old_map = shard_map t in
  let old_slots = slots t in
  if not (List.exists (fun (s : Wire.shard) -> s.shard_id = shard_id) old_map.Wire.shards)
  then Error (Printf.sprintf "no shard %d in the map" shard_id)
  else if List.length old_map.Wire.shards <= 1 then
    Error "cannot remove the last shard"
  else begin
    let new_map =
      { Wire.map_version = old_map.Wire.map_version + 1;
        shards =
          List.filter
            (fun (s : Wire.shard) -> s.shard_id <> shard_id)
            old_map.Wire.shards
      }
    in
    let new_slots =
      List.filter (fun s -> s.shard.Wire.shard_id <> shard_id) old_slots
    in
    match apply_map t new_map ~old_slots ~new_slots with
    | Ok moved ->
      Ok
        (Printf.sprintf "shard %d left (map v%d, %d row(s) moved)" shard_id
           new_map.Wire.map_version moved)
    | Error e -> Error e
  end

(* ---------- statements ---------- *)

(* A catalog change broadcast: every kept GROUP BY drops, before the
   shards see it and after (a read that straddles it answers the
   stateless way). *)
let catalog_change ?trace t sql =
  let bump () = locked t (fun () -> t.epoch <- t.epoch + 1) in
  bump ();
  Fun.protect ~finally:bump (fun () -> broadcast ?trace t (slots t) sql ~merge:merge_acks)

(* A statement's reply, from the read route or the shards' merged
   acknowledgements. *)
let write ?trace ~prune t (p : lowered Statement_cache.prepared) sql =
  (* [r], after [effect] when every shard acknowledged it *)
  let on_ack r effect =
    (match r with
     | Wire.Ok_msg _ -> locked t effect
     | _ -> ());
    r
  in
  match p.statement with
  | Ast.Query qs -> Loop.reply (read ?trace ~prune t p qs sql)
  | Ast.Insert { values = key :: _; _ } -> route_insert ?trace t ~key sql
  | Ast.Insert { values = []; _ } -> err "INSERT needs at least one value"
  | Ast.Advance_to n ->
    on_ack (broadcast ?trace t (slots t) sql ~merge:merge_acks) (fun () ->
        t.now <- Time.max t.now (Time.of_int n))
  | Ast.Tick n ->
    on_ack (broadcast ?trace t (slots t) sql ~merge:merge_acks) (fun () ->
        t.now <- Time.add t.now (Time.of_int n))
  | Ast.Create_table (name, columns) ->
    on_ack (catalog_change ?trace t sql) (fun () -> Hashtbl.replace t.tables name columns)
  | Ast.Drop_table name ->
    on_ack (catalog_change ?trace t sql) (fun () ->
        Hashtbl.remove t.tables name;
        Hashtbl.filter_map_inplace
          (fun (table, _) () -> if table = name then None else Some ())
          t.indexes)
  | Ast.Delete (table, Some cond) when prune ->
    (* A pinned DELETE reaches the keys' owners; an unpinned one
       broadcasts. *)
    let keys = cond_keys ?trace t table cond in
    broadcast ?trace t (locked t (fun () -> candidates t keys)) sql ~merge:merge_counts
  | Ast.Delete _ | Ast.Vacuum ->
    broadcast ?trace t (slots t) sql ~merge:merge_counts
  | Ast.Create_index { table; column } ->
    on_ack (catalog_change ?trace t sql) (fun () -> Hashtbl.replace t.indexes (table, column) ())
  | Ast.Drop_index { table; column } ->
    on_ack (catalog_change ?trace t sql) (fun () -> Hashtbl.remove t.indexes (table, column))
  | Ast.Explain _ | Ast.Explain_analyze _ ->
    broadcast ?trace t (slots t) sql ~merge:merge_texts
  | Ast.Show_tables | Ast.Show_time -> forward_to_any ?trace t sql
  | Ast.Show_horizon table ->
    (match gather_horizon ?trace ?table t with
     | Error e -> e
     | Ok merged -> Wire.Ok_msg (Obs.Horizon.render merged))
  | Ast.Checkpoint | Ast.Create_view _ | Ast.Show_view _ | Ast.Show_views
  | Ast.Refresh_view _ | Ast.Create_trigger _ | Ast.Drop_trigger _
  | Ast.Show_triggers | Ast.Create_constraint _ | Ast.Drop_constraint _
  | Ast.Show_constraints ->
    err
      "unsupported in cluster mode (views, triggers, constraints and \
       CHECKPOINT are per-node features; address a shard directly)"

(* What a coordinator answers beside SQL: its shards and their
   membership. *)
type statement =
  | Sql of lowered Statement_cache.prepared
  | Shards
  | Add_shard of endpoint
  | Remove_shard of int

(* [text] begins with [word] (upper case), in any case. *)
let begins_with ~word text =
  let n = String.length word in
  let rec from i = i >= n || (Char.uppercase_ascii text.[i] = word.[i] && from (i + 1)) in
  String.length text >= n && from 0

(* The coordinator's own statements, or SQL read through the statement
   cache.  Only a text that begins with one of their words pays for
   more than that check. *)
let parse t text =
  let text = String.trim text in
  let arg word =
    let n = String.length word in
    if begins_with ~word text then Some (String.trim (String.sub text n (String.length text - n)))
    else None
  in
  let usage form = raise (Parser.Error ("usage: " ^ form, 0)) in
  if String.length text = 6 && begins_with ~word:"SHARDS" text then Shards
  else
    match (arg "ADD SHARD ", arg "REMOVE SHARD ") with
    | Some e, _ ->
      (match Member.endpoint_of_string e with
       | Some endpoint -> Add_shard endpoint
       | None -> usage "ADD SHARD HOST:PORT")
    | None, Some id ->
      (match int_of_string_opt id with
       | Some id -> Remove_shard id
       | None -> usage "REMOVE SHARD ID")
    | None, None -> Sql (Statement_cache.prepare t.statements text)

(* Per shard: reachability and the cached partition summary. *)
let shards_text t =
  String.concat "\n"
    (List.map
       (fun (id, summary, reachable) ->
         Printf.sprintf "shard %d: %s%s" id
           (if reachable then "reachable" else "unreachable")
           (match summary with
            | None -> ", partition unknown"
            | Some { Wire.live_rows; min_texp; max_texp } ->
              Printf.sprintf ", %d live row(s), texp in [%s, %s]" live_rows
                (Time.to_string min_texp) (Time.to_string max_texp)))
       (summaries t))

(* A query keeps its relation, so a client's held answer can diff it;
   every other answer is a message or an [Err].  SQL runs under the
   rebalance read side; the membership statements take none (a move
   takes the write side itself, and SHARDS answers during a move). *)
let run ?trace ~prune t stmt sql =
  let answer = function
    | Wire.Ok_msg message -> Ok (Interp.Msg message)
    | reply -> Error reply
  in
  let changed = function
    | Ok message -> Ok (Interp.Msg message)
    | Error message -> Error (err message)
  in
  match stmt with
  | Sql p ->
    Expirel_storage.Rwlock.with_read t.rebalance (fun () ->
        match p.statement with
        | Ast.Query qs -> read ?trace ~prune t p qs sql
        | _ -> answer (write ?trace ~prune t p sql))
  | Shards -> Ok (Interp.Msg (shards_text t))
  | Add_shard endpoint -> changed (add_shard t endpoint)
  | Remove_shard id -> changed (remove_shard t id)

(* Traced like a node's request: parse here, fan out under a [scatter]
   span with the context shipped, finish into the trace store. *)
let exec ?(prune = true) ?trace t sql =
  Loop.traced t.loop ?trace ~parse:(parse t) sql (fun trace stmt ->
      Loop.reply (run ?trace ~prune t stmt sql))

(* ---------- the wire ---------- *)

(* Statements as [exec] runs them, and an error for every request only
   a node serves. *)
let service t =
  { Loop.parse = parse t;
    holdable =
      (function
        | Sql { statement; _ } -> Loop.holdable statement
        | Shards | Add_shard _ | Remove_shard _ -> false);
    run = (fun trace sql stmt -> run ?trace ~prune:true t stmt sql);
    metrics = (fun () -> Wire.Metrics_reply (metrics t));
    health = (fun () -> Wire.Health_reply (health t));
    horizon =
      (fun table ->
        match gather_horizon ?table t with
        | Ok report -> Wire.Horizon_reply report
        | Error reply -> reply);
    traces = recent_traces t;
    other =
      (fun _ _ ->
        Some
          (err
             "a coordinator serves statements and observability requests; \
              watches, replication and shard requests go to a node"));
    closed = ignore
  }

let listen ?(host = "127.0.0.1") ?(port = 0) t =
  Loop.start t.loop ~host ~port (service t);
  Loop.port t.loop
