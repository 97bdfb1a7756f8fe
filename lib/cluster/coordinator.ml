open Expirel_core
open Expirel_sqlx
open Expirel_server
open Expirel_repl
module Obs = Expirel_obs
module Sketch = Expirel_sketch
module Partial_agg = Expirel_exec.Partial_agg
module Subscription = Expirel_exec.Subscription
module Plan = Expirel_exec.Plan
module Planner = Expirel_exec.Planner
module Executor = Expirel_exec.Executor
module Lru = Expirel_exec.Lru

(* The span names a coordinator records, interned once; each slot
   interns its own [rpc:shard-<id>]. *)
let scatter_span = Obs.Trace.name "scatter"
let kept_span = Obs.Trace.name "kept"

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

(* The coordinator's statement cache entry: a query's plan
   ({!Planner.distribute}) for one catalog [epoch], made or rebound for
   [p_literals]. *)
type planned = {
  p_epoch : int;
  p_columns : string list;
  p_compiled : Plan.compiled;
  p_literals : Value.t array;
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
      (* the cluster catalog as this coordinator knows it ([table_columns]):
         plans need column names and arities before any shard replies *)
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
  kept : (string, kept) Lru.t;
      (* repeated GROUP BY COUNT texts, kept; an entry whose epoch is
         not [epoch] is dropped on its next read *)
  mutable epoch : int;  (* bumped by every DDL and shard-map change *)
  statements : planned Statement_cache.t;
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
let ids slots = List.map (fun s -> s.shard.Wire.shard_id) slots

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

(* Every request to the shards goes through here, on the caller's
   thread.  Each is posted as soon as its slot's lock is free, and the
   replies are collected as they arrive (one [select], each bounded by
   its connection's receive timeout), each slot released once its reply
   is in.  A busy slot, or one that would have to dial, waits until the
   replies already posted are in (retried every [retry_slots_s]): only
   a caller holding no slot blocks on a lock or a dial, so callers never
   wait on each other in a cycle, and a slow shard stalls no other
   shard's traffic.  A member whose post or collect fails is dropped
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

(* The one coordinator-to-shard statement request, carrying the
   caller's trace context. *)
let shard_exec ?trace ~want sql =
  Wire.Shard_exec { sql; ctx = Option.map Wire.ctx_of_trace trace; want }

(* A rows-or-ack envelope as the plain response a client would get;
   [exchange] has already harvested its partition summary. *)
let unwrap = function
  | Wire.Shard_reply
      { body = Wire.Body_rows { columns; rows; texp_e; recomputed }; _ } ->
    Wire.Rows { columns; rows; texp_e; recomputed }
  | Wire.Shard_reply { body = Wire.Body_ack message; _ } -> Wire.Ok_msg message
  | r -> r

(* A statement on one shard, with nothing to overlap it with; [Error]
   is a transport failure. *)
let exec_on ?trace t slot sql =
  let request = shard_exec ?trace ~want:Wire.Want_rows sql in
  let _, reply, _, _ = List.hd (exchange t [ (slot, request) ]) in
  Result.map unwrap reply

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

(* The cluster catalog: the CREATE TABLE columns this coordinator
   broadcast, or else (it can attach to a populated cluster) recovered
   once from a zero-row describe scan, whose labels are the bare DDL
   names shard-side lowering sees. *)
let table_columns ?trace t name =
  match locked t (fun () -> Hashtbl.find_opt t.tables name) with
  | Some columns -> Some columns
  | None ->
    (match forward_to_any ?trace t (describe name) with
     | Wire.Rows { columns; _ } ->
       locked t (fun () -> Hashtbl.replace t.tables name columns);
       Some columns
     | _ -> None)

(* ---------- key routing ---------- *)

(* Asking only the keys' owners gives the broadcast's answer (a
   partition without the key adds nothing to the union), when every
   value [Value.cmp] equates with a key hashes as it does: [Int]s beyond
   2^53 equal [Float]s of other hashes (2^53 + 1 equals 2^53.), and NaN
   equals every NaN bit pattern — those broadcast. *)
let routable = function
  | Value.Int n -> n >= -(1 lsl 53) && n <= 1 lsl 53
  | Value.Float f ->
    (not (Float.is_nan f))
    && ((not (Float.is_integer f)) || Float.abs f < 0x1p53)
  | Value.Str _ | Value.Bool _ | Value.Null -> true

let cond_keys ?trace t table cond =
  match table_columns ?trace t table with
  | None -> None
  | Some columns ->
    (match Interp.guard (fun () -> Lower.lower_cond_for_table ~columns ~table cond) with
     | Ok p -> Planner.pinned_keys p
     | Error _ -> None)

(* The shards a statement with [keys] may need: the keys' owners, or
   every shard without routable keys (callers pass none under
   [~prune:false], the forced broadcast), the others counted as routed
   away when [count].  The caller holds [t.state]. *)
let candidates ?(count = true) t keys =
  match keys with
  | Some keys when List.for_all routable keys ->
    let ids = List.map (Wire.shard_owner t.map) keys in
    let chosen = List.filter (fun s -> List.mem s.shard.Wire.shard_id ids) t.slots in
    if count then
      Obs.Instrument.Counter.add t.routed_total
        (max 0 (List.length t.slots - List.length chosen));
    chosen
  | Some _ | None -> t.slots

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
   whose summary cannot prove its partition empty (every shard without
   [prune]); the rest count as pruned when [count]. *)
let contacts ?(count = true) ~prune t keys tau =
  locked t (fun () ->
      let candidates = candidates ~count t (if prune then keys else None) in
      if not prune then candidates
      else
        let contacted, pruned = List.partition (fun s -> not (prunable s tau)) candidates in
        if count then Obs.Instrument.Counter.add t.pruned_total (List.length pruned);
        contacted)

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
          Obs.Trace.record tr ~name:slot.rpc_span
            ~start_us:(max 0 (int_of_float ((t0 -. Obs.Trace.started_at tr) *. 1e6)))
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

(* Every shard's forward expiration forecast, merged bucket-wise:
   exact, since hash partitions are disjoint (a qcheck law pins merged
   ≡ single-node).  Never pruned: the forecast must name every table.
   The merged report carries the per-shard live-row breakdown. *)
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

(* A routed write: exactly one shard — the key's owner — is contacted;
   its ack piggybacks the refreshed summary, so an insert into a shard
   the coordinator believed empty immediately un-prunes it. *)
let route_insert ?trace t ~key sql =
  let owner = Wire.shard_owner (shard_map t) key in
  match List.find_opt (fun s -> s.shard.Wire.shard_id = owner) (slots t) with
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
  let text (slot, reply) =
    Printf.sprintf "--- shard %d ---\n%s" slot.shard.Wire.shard_id
      (match reply with
       | Wire.Ok_msg message -> message
       | other -> Wire.render_response other)
  in
  Wire.Ok_msg (String.concat "\n" (List.map text replies))

(* ---------- the read path ---------- *)

(* A fan-out that could not answer: the shard's own [Err], or the
   [Shard_failed] naming the shard, raised out of the executor. *)
exception Failed of Wire.response

(* A repeated GROUP BY COUNT over every shard, kept at the coordinator:
   each shard is asked with the version of the groups it last shipped
   on this coordinator's connection, and answers only the groups
   changed since — written, or crossed by their nu — condensed (all of
   them when it holds no such version, or rebuilt its entry).  A full
   reply rebuilds this coordinator's copy of that shard's groups, a
   delta replaces the groups it names (a slice-less one is gone), a
   condensed reply (no standing entry there yet) seeds it at version
   0, and a pruned shard's copy empties.  A connection counts versions
   from 1 and a redial reuses the slot, so a read that records no reply
   (a failed gather, a catalog change under it) drops every contacted
   shard's copy to version 0.  The groups a read touched are merged
   again from the copies and re-finalised ({!Subscription.regroup}),
   under a [kept] span, each at its own shard's clock.  [None]: a
   catalog change landed under the read, which must be answered the
   stateless way.
   @raise Failed when a contacted shard does not answer *)
let standing_step ?trace t e ~contacted sql =
  let held slot =
    let id = slot.shard.Wire.shard_id in
    if not (Hashtbl.mem e.held id) then
      Hashtbl.replace e.held id { version = 0; groups = Groups.empty };
    Hashtbl.find e.held id
  in
  let ask slot = shard_exec ?trace ~want:(Wire.Want_agg (Some (held slot).version)) sql in
  let requests = List.map (fun slot -> (slot, ask slot)) contacted in
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
    raise (Failed reply)
  | Ok _ when locked t (fun () -> t.epoch <> e.epoch) ->
    unrecorded ();
    None
  | Ok parts ->
    Some
      (Obs.Trace.span trace kept_span @@ fun () ->
       (* The keys each reply and each emptied copy touched. *)
       let touched = ref [] in
       (* A reply's groups written into its shard's copy, emptied first
          when the reply is [whole]; a slice-less group is gone. *)
       let write h ~whole groups version =
         if whole then begin
           touched := Groups.fold (fun key _ keys -> key :: keys) h.groups !touched;
           h.groups <- Groups.empty
         end;
         touched := List.map (fun (g : Partial_agg.group) -> g.key) groups @ !touched;
         let slice (g : Partial_agg.group) = (g.key, if g.slices = [] then None else Some g) in
         h.groups <- Groups.patch h.groups (List.map slice groups);
         h.version <- version
       in
       let replied = ids (List.map fst parts) in
       Hashtbl.iter (fun id h -> if not (List.mem id replied) then write h ~whole:true [] 0) e.held;
       List.iter
         (fun (slot, (groups, held_groups, _)) ->
           match held_groups with
           | None -> write (held slot) ~whole:true groups 0
           | Some { Wire.full; version } -> write (held slot) ~whole:full groups version)
         parts;
       let copies = Hashtbl.fold (fun _ h copies -> h.groups :: copies) e.held [] in
       let keys = List.sort_uniq Groups.compare_keys !touched in
       let largest = List.fold_left (fun n c -> max n (Groups.cardinal c)) 0 copies in
       (* A read that touched as many groups as the largest copy holds
          re-finalises every group at once, as the stateless read
          merges and finalises its partials; any other re-finalises the
          groups it touched. *)
       let counts =
         if List.compare_length_with keys largest >= 0 then
           Subscription.rebuild e.counts
             (Partial_agg.merge_all ~func:Aggregate.Count
                (List.map (fun c -> Groups.fold (fun _ g gs -> g :: gs) c []) copies))
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
       { Eval.relation; texp = Time.min_list (texp :: List.map (fun (_, (_, _, e)) -> e) parts) })

(* A text's first read (or its first since an eviction or a catalog
   change) only makes its entry and is answered the stateless way, with
   the shards' condensed groups: a text read once costs what it did
   without the entry, and only a text read again names a version.
   [group], [having], [projection] and [child_arity] are the kept
   COUNT's. *)
let standing_read ?trace t sql (group, having, projection, child_arity) ~columns ~contacted
    ~stateless =
  let counts () =
    Subscription.counts
      ~output:(Partial_agg.finalizer ~group ~func:Aggregate.Count ~child_arity ?having ~projection)
      ~distinct:(Partial_agg.distinct_rows ~group ~projection)
      ~arity:(List.length columns)
  in
  let entry =
    locked t (fun () ->
        match Lru.find t.kept sql with
        | Some e when e.epoch = t.epoch -> Some e
        | Some _ | None ->
          let fresh =
            { lock = Mutex.create (); epoch = t.epoch; held = Hashtbl.create 4; counts = counts () }
          in
          Lru.set t.kept sql fresh;
          None)
  in
  match
    Option.bind entry (fun e ->
        Mutex.protect e.lock (fun () -> standing_step ?trace t e ~contacted sql))
  with
  | Some answer -> Executor.Finalised answer
  | None -> stateless ()

(* The text an exchange ships, of the statement [sql]. *)
let shipped sql (x : Plan.exchange) =
  match x.ship with
  | Plan.Statement -> sql
  | Plan.Table name -> "SELECT * FROM " ^ name

let traffic_bytes t =
  Obs.Instrument.Counter.(value t.bytes_sent_total + value t.bytes_received_total)

(* The executor's transport: an exchange ships to the owners of the
   keys it pins whose partitions can still hold live rows at [tau], and
   hands back what it wants of each reply; a partials exchange of the
   kept COUNT shape [keep] reads the kept groups.  [costs] gets, in
   order, each exchange's shards, time and the bytes the traffic
   counters grew by meanwhile (requests in flight add theirs).
   @raise Failed when a contacted shard does not answer *)
let transport ?trace ?costs ~prune t ~tau ~keep ~columns sql (x : Plan.exchange) =
  let contacted = contacts ~prune t x.keys tau in
  let started = Option.map (fun _ -> (Unix.gettimeofday (), traffic_bytes t)) costs in
  let ask want what extract =
    match scatter ?trace t contacted ~want ~what (shipped sql x) extract with
    | Ok parts -> parts
    | Error reply -> raise (Failed reply)
  in
  let reply =
    match x.want with
    | Plan.Rows ->
      Executor.Rows
        (List.map (fun (_, rows, texp, _) -> (rows, texp)) (ask Wire.Want_rows "a query" rows_body))
    | Plan.Partials ->
      let stateless () =
        Executor.Partials
          (ask (Wire.Want_agg None) "an aggregate request" (function
            | Wire.Shard_reply { body = Wire.Body_agg { groups; child_texp; _ }; _ } ->
              Some (groups, child_texp)
            | _ -> None))
      in
      (match keep with
       | Some shape -> standing_read ?trace t sql shape ~columns ~contacted ~stateless
       | None -> stateless ())
    | Plan.Sketch ->
      Executor.Sketches
        (ask Wire.Want_sketch "a sketch request" (function
          | Wire.Shard_reply { body = Wire.Body_sketch { payload; _ }; _ } ->
            Result.to_option (Sketch.Any.of_string payload)
          | _ -> None))
  in
  (match costs, started with
   | Some costs, Some (t0, bytes) ->
     let time_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
     Queue.add (ids contacted, time_us, traffic_bytes t - bytes) costs
   | _ -> ());
  reply

(* [q]'s plan through the statement cache: as cached when the planned
   literals are the request's, rebound when only condition values
   differ, made afresh at a new catalog epoch or on a miss.
   @raise Lower.Error as {!Lower.lower_query} *)
let plan ?trace t (p : planned Statement_cache.prepared) q =
  let epoch = locked t (fun () -> t.epoch) in
  let store planned =
    Statement_cache.store t.statements p planned;
    planned
  in
  let current l = l.p_epoch = epoch and literals l = l.p_literals in
  match Statement_cache.reuse t.statements p ~current ~literals with
  | Statement_cache.As_is l -> l
  | Statement_cache.Rebound (l, f) ->
    store { l with p_compiled = Planner.rebind f l.p_compiled; p_literals = p.literals }
  | Statement_cache.Absent ->
    let catalog = table_columns ?trace t in
    let { Lower.expr; columns; approx } = Lower.lower_query ~catalog q in
    let env name = Option.map List.length (catalog name) in
    store
      { p_epoch = epoch;
        p_columns = columns;
        p_compiled = Planner.distribute ~env ?approx expr;
        p_literals = p.literals
      }

(* A planned read of [sql] at [tau], its exchanges through
   {!transport}. *)
let evaluate ?trace ?costs ~prune t ~tau ~keep planned sql =
  Obs.Instrument.Counter.incr t.fanouts_total;
  let transport = transport ?trace ?costs ~prune t ~tau ~keep ~columns:planned.p_columns sql in
  Executor.run ?trace ~tau ~transport planned.p_compiled

(* The shape a read keeps, under [prune]: a COUNT over a partials
   exchange pinning no key. *)
let keep ~prune planned =
  match planned.p_compiled.Plan.physical with
  | Plan.Grouped_aggregate
      { group; func = Count; having; projection; child = Plan.Exchange { keys = None; arity; _ } }
    when prune -> Some (group, having, projection, arity)
  | _ -> None

(* A query, answered by the executor over its plan's exchanges and
   presented as a single node presents its own: ORDER BY, the
   full-tuple tie-break, then LIMIT.  Each shard cut its own answer the
   same way, so its first [n] rows hold every row of the global first
   [n] that lives there.  A read with [AT] keeps nothing. *)
let query ?trace ~prune t (p : planned Statement_cache.prepared) (qs : Ast.query_stmt) sql =
  match
    Interp.guard (fun () ->
        (* the cluster clock, or an AT refused before it as one node refuses it *)
        let now = locked t (fun () -> t.now) in
        let tau = Option.value (Interp.at_tau ~now qs.Ast.at) ~default:now in
        let planned = plan ?trace t p qs.Ast.q in
        let keep = if qs.Ast.at = None then keep ~prune planned else None in
        let { Eval.relation; texp } = evaluate ?trace ~prune t ~tau ~keep planned sql in
        let columns = planned.p_columns in
        let present =
          Interp.order_and_limit ~columns ~order_by:qs.Ast.order_by ~limit:qs.Ast.limit
        in
        Interp.Rows
          { columns; relation; listing = lazy (present relation); texp_e = texp;
            recomputed = false })
  with
  | Ok answer -> Ok answer
  | Error message -> Error (err message)
  | exception Failed reply -> Error reply

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
      kept = Lru.create ~capacity:Interp.statement_capacity ();
      epoch = 0;
      statements = Statement_cache.create ~capacity:Interp.statement_capacity ();
      last_horizon = None;
      hb_thread = None;
      stopping = false;
      heartbeat_interval
    }
  in
  let gauge name help f =
    Obs.Registry.gauge_fun registry ~name ~help (fun () -> float_of_int (f ()))
  in
  let shards p = List.length (List.filter p (slots t)) in
  gauge "expirel_cluster_shard_map_version" "Version of the shard map this coordinator routes by"
    (fun () -> (shard_map t).Wire.map_version);
  gauge "expirel_cluster_shards" "Shards in the current map" (fun () -> shards (fun _ -> true));
  gauge "expirel_cluster_unreachable_shards"
    "Shards that did not answer their last contact or heartbeat" (fun () ->
      shards (fun s -> not s.reachable));
  gauge "expirel_cluster_restarted_shards"
    "Shards whose heartbeat brought another boot id than their first heartbeat since they \
     joined" (fun () -> shards (fun s -> s.boot = Restarted));
  (* Cluster-horizon gauges read the cached merged forecast — a scrape
     never fans out.  While no forecast has been gathered yet the
     callbacks raise, which the registry renders as an absent metric
     (and the storm rules therefore skip, not fire).  [rows f] sums [f]
     over its tables. *)
  let rows f =
    match locked t (fun () -> t.last_horizon) with
    | Some r -> List.fold_left (fun acc tb -> acc + f r tb) 0 r.Obs.Horizon.tables
    | None -> raise Not_found
  in
  gauge "expirel_cluster_live_rows" "Live rows across the cluster at the last horizon gather"
    (fun () -> rows (fun _ tb -> Obs.Horizon.live tb));
  gauge "expirel_cluster_horizon_expiring_soon"
    "Live rows across the cluster expiring within the forecast window, from the last \
     horizon gather" (fun () ->
      rows (fun r tb -> Obs.Horizon.expiring_within tb r.Obs.Horizon.window));
  gauge "expirel_cluster_horizon_fanout_events"
    "Subscription events the next ADVANCE window delivers across the cluster, from the \
     last horizon gather" (fun () ->
      match locked t (fun () -> t.last_horizon) with
      | Some r -> r.Obs.Horizon.fanout_events
      | None -> raise Not_found);
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
   ([SELECT *], one reply, bounded by [Frame.max_frame]), one loads the
   rows leaving it at their new owners, and only once every load is
   acknowledged one deletes them at their sources (see {!add_shard} for
   what a cut move leaves). *)
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
  let joining =
    { Wire.shard_id = fresh_id; shard_host = endpoint.host; shard_port = endpoint.port }
  in
  let new_map =
    { Wire.map_version = old_map.Wire.map_version + 1; shards = old_map.Wire.shards @ [ joining ] }
  in
  let newcomer = make_slot t joining in
  let new_slots = old_slots @ [ newcomer ] in
  (* The joining shard needs the cluster's catalog and clock before it
     can ingest: each table's CREATE TABLE ([table_columns]) and CREATE
     INDEXes, then its clock, so ingested expiration times mean the
     same there.  A table it has with those columns (a failed ADD of
     the same node made it) is kept but emptied, since rows the failed
     move loaded there may have been deleted since; a CREATE INDEX it
     has rebuilds it, and ADVANCE TO its own clock is a no-op. *)
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

(* The rest of [text], trimmed, when it begins with [word] (upper
   case) in any case. *)
let after ~word text =
  let n = String.length word in
  let rec from i = i >= n || (Char.uppercase_ascii text.[i] = word.[i] && from (i + 1)) in
  if String.length text >= n && from 0 then
    Some (String.trim (String.sub text n (String.length text - n)))
  else None

(* The query an EXPLAIN [ANALYZE] text explains. *)
let explained sql =
  let skip word text = Option.value (after ~word text) ~default:text in
  skip "ANALYZE" (skip "EXPLAIN" (String.trim sql))

(* EXPLAIN [ANALYZE] through the coordinator: its own plan first, each
   exchange line naming the shards it contacts after pruning, whether
   it reads the text's kept COUNT, and the text it ships — under
   ANALYZE from a run of the query, with its fan-out's time and bytes —
   then every shard's own report. *)
let explain ?trace ~prune ~analyze t p q sql =
  let text = explained sql in
  let own () =
    let planned = plan ?trace t p q in
    let physical = planned.p_compiled.Plan.physical in
    let tau = locked t (fun () -> t.now) in
    let keep = keep ~prune planned in
    let current = Option.fold ~none:false ~some:(fun (e : kept) -> e.epoch = t.epoch) in
    let kept = keep <> None && locked t (fun () -> current (Lru.find t.kept text)) in
    let costs = Queue.create () in
    let unrun (x : Plan.exchange) = (ids (contacts ~count:false ~prune t x.keys tau), 0, 0) in
    if analyze then ignore (evaluate ?trace ~costs ~prune t ~tau ~keep planned text)
    else List.iter (fun x -> Queue.add (unrun x) costs) (Plan.exchanges physical);
    let line = function
      | Plan.Exchange x as leaf ->
        let shards, time_us, bytes = Queue.take costs in
        Printf.sprintf "%s shards {%s}%s: %s%s" (Plan.describe leaf)
          (String.concat "," (List.map string_of_int shards))
          (if kept then " kept" else "")
          (shipped text x)
          (if not analyze then ""
           else Printf.sprintf "  (time=%.3fms bytes=%d)" (float_of_int time_us /. 1e3) bytes)
      | node -> Plan.describe node
    in
    Plan.render line physical
  in
  match Interp.guard own with
  | Error message -> err message
  | exception Failed reply -> reply
  | Ok own ->
    (match broadcast ?trace t (slots t) sql ~merge:merge_texts with
     | Wire.Ok_msg shards -> Wire.Ok_msg ("--- coordinator ---\n" ^ own ^ shards)
     | reply -> reply)

(* A statement's reply, from the read path or the shards' merged
   acknowledgements. *)
let write ?trace ~prune t (p : planned Statement_cache.prepared) sql =
  (* [r], after [effect] when every shard acknowledged it *)
  let on_ack r effect =
    (match r with
     | Wire.Ok_msg _ -> locked t effect
     | _ -> ());
    r
  in
  match p.statement with
  | Ast.Query qs -> Loop.reply (query ?trace ~prune t p qs sql)
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
  | Ast.Explain q -> explain ?trace ~prune ~analyze:false t p q sql
  | Ast.Explain_analyze q -> explain ?trace ~prune ~analyze:true t p q sql
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
  | Sql of planned Statement_cache.prepared
  | Shards
  | Add_shard of endpoint
  | Remove_shard of int

(* The coordinator's own statements, or SQL read through the statement
   cache.  Only a text that begins with one of their words pays for
   more than that check. *)
let parse t text =
  let text = String.trim text in
  let usage form = raise (Parser.Error ("usage: " ^ form, 0)) in
  if String.length text = 6 && after ~word:"SHARDS" text <> None then Shards
  else
    match (after ~word:"ADD SHARD " text, after ~word:"REMOVE SHARD " text) with
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
        | Ast.Query qs -> query ?trace ~prune t p qs sql
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
