(* The wire protocol's codecs are pure string functions, so they get the
   full property treatment: encode/decode round-trips for every message
   constructor, and adversarial decoding — truncations, oversized length
   prefixes, unknown tags, wrong versions, trailing garbage, random
   junk — which must come back as [Error]/[Malformed], never as an
   exception. *)

open Expirel_core
open Expirel_storage
open Expirel_server
module Gen = QCheck2.Gen

(* ---------- generators ---------- *)

(* Wire values exercise every constructor (the relational tests stick to
   small ints; the codec must also carry strings, floats and bools).
   Floats travel as IEEE bits, so any non-nan float round-trips exactly. *)
let value : Value.t Gen.t =
  Gen.frequency
    [ 3, Gen.map Value.int (Gen.int_range (-1_000_000) 1_000_000);
      2, Gen.map Value.str (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12));
      2, Gen.map (fun i -> Value.float (float_of_int i /. 8.)) (Gen.int_range (-800) 800);
      1, Gen.map Value.bool Gen.bool;
      1, Gen.return Value.Null ]

let time : Time.t Gen.t =
  Gen.frequency
    [ 6, Gen.map Time.of_int (Gen.int_range 0 1_000_000);
      1, Gen.return Time.Inf ]

let name = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 20)
let row = Gen.list_size (Gen.int_range 0 5) value

(* Trace contexts and spans carry arbitrary strings (ids, labels) and
   the 0 = no-parent convention; both directions must round-trip. *)
let trace_ctx : Wire.trace_ctx Gen.t =
  Gen.map2
    (fun trace_id parent_span -> { Wire.trace_id; parent_span })
    name (Gen.int_range 0 1_000)

(* Cluster payloads: shards, partition summaries, moved rows. *)
let shard : Wire.shard Gen.t =
  let open Gen in
  let* shard_id = int_range 0 1_000 in
  let* shard_host = name in
  let* shard_port = int_range 0 65_535 in
  return { Wire.shard_id; shard_host; shard_port }

let partition_texp : Wire.partition_texp Gen.t =
  let open Gen in
  let* live_rows = int_range 0 1_000_000 in
  let* min_texp = time in
  let* max_texp = time in
  return { Wire.live_rows; min_texp; max_texp }

let moved = Gen.list_size (Gen.int_range 0 4) (Gen.pair row time)

(* Varints carry any int: small ones in a byte, the extremes in
   nine. *)
let wide_int : int Gen.t =
  Gen.oneof
    [ Gen.int_range (-3) 300; Gen.int; Gen.oneofl [ min_int; max_int; 0; -1 ] ]

let wide_time : Time.t Gen.t =
  Gen.oneof [ time; Gen.map Time.of_int wide_int ]

let want : Wire.want Gen.t =
  Gen.oneof
    [ Gen.oneofl [ Wire.Want_rows; Wire.Want_sketch; Wire.Want_agg None ];
      Gen.map (fun v -> Wire.Want_agg (Some v)) wide_int ]

(* v19: a move adds and removes the rows the coordinator chose. *)
let move_rows : Wire.request Gen.t =
  Gen.map3
    (fun table add remove -> Wire.Move_rows { table; add; remove })
    name moved (Gen.list_size (Gen.int_range 0 4) row)

let request : Wire.request Gen.t =
  Gen.oneof
    [ Gen.map (fun s -> Wire.Exec s) name;
      Gen.map2 (fun n q -> Wire.Subscribe { name = n; query = q }) name name;
      Gen.map (fun n -> Wire.Unsubscribe n) name;
      Gen.return Wire.Ping;
      Gen.return Wire.Quit;
      Gen.return Wire.Metrics;
      Gen.map (fun n -> Wire.Slow_queries n) (Gen.int_range 0 1_000);
      Gen.map3
        (fun replica_id position ctx ->
          Wire.Replicate { replica_id; position; ctx })
        name (Gen.int_range 0 1_000_000) (Gen.option trace_ctx);
      Gen.map2
        (fun sql ctx -> Wire.Exec_traced { sql; ctx })
        name trace_ctx;
      Gen.map (fun n -> Wire.Trace_recent n) (Gen.int_range 0 1_000);
      Gen.return Wire.Health;
      Gen.return Wire.Shard_ping;
      (* v8: the forward-looking expiration forecast *)
      Gen.map (fun t -> Wire.Horizon t) (Gen.option name);
      (* v9: the one coordinator-to-shard statement request *)
      Gen.map3
        (fun sql ctx want -> Wire.Shard_exec { sql; ctx; want })
        name (Gen.option trace_ctx) want;
      (* v14: the one client statement request, naming a held version *)
      Gen.map3
        (fun sql ctx held -> Wire.Statement { sql; ctx; held })
        name (Gen.option trace_ctx) (Gen.option wide_int);
      (* v19: a rebalance's one write *)
      move_rows ]

let error_code : Wire.error_code Gen.t =
  Gen.oneofl
    [ Wire.Parse_error; Wire.Exec_error; Wire.Proto_error; Wire.Timeout;
      Wire.Overloaded; Wire.Shutting_down; Wire.Version_mismatch;
      Wire.Shard_failed ]

(* Shipped WAL records reuse the durable on-disk codec; the wire must
   carry any of them.  (CREATE TABLE needs >= 1 column and the clock
   only ever advances to finite times, matching what a primary can
   log.) *)
let wal_record : Wal.record Gen.t =
  Gen.oneof
    [ Gen.map2
        (fun name columns -> Wal.Create_table { name; columns })
        name
        (Gen.list_size (Gen.int_range 1 4) name);
      Gen.map (fun n -> Wal.Drop_table n) name;
      (let open Gen in
       let* table = name in
       let* r = row in
       let* texp = time in
       return (Wal.Insert { table; tuple = Tuple.of_list r; texp }));
      (let open Gen in
       let* table = name in
       let* r = row in
       return (Wal.Delete { table; tuple = Tuple.of_list r }));
      Gen.map
        (fun n -> Wal.Advance (Time.of_int n))
        (Gen.int_range 0 1_000_000) ]

let wal_records = Gen.list_size (Gen.int_range 0 6) wal_record

let event : Wire.event Gen.t =
  Gen.oneof
    [ Gen.map3
        (fun subscription row at -> Wire.Row_expired { subscription; row; at })
        name row time;
      (let open Gen in
       let* subscription = name in
       let* row = row in
       let* texp = time in
       let* at = time in
       return (Wire.Row_appeared { subscription; row; texp; at }));
      Gen.map2 (fun subscription at -> Wire.Refreshed { subscription; at }) name time ]

let counter = Gen.int_range 0 1_000_000

let span : Expirel_obs.Trace.span Gen.t =
  let open Gen in
  let* label = name in
  let* id = int_range 1 1_000 in
  let* parent = option (int_range 1 1_000) in
  let* start_us = counter in
  let* duration_us = counter in
  let* labels = list_size (int_range 0 3) (pair name name) in
  return
    { Expirel_obs.Trace.id; parent; name = label; start_us; duration_us;
      labels }

(* v8 horizon payloads: the bucketed forecast travels verbatim, so any
   well-formed report (bounds and counts arrays of equal length) must
   round-trip.  Rates are i/8 floats — IEEE bits, exact. *)
let horizon_table : Expirel_obs.Horizon.table Gen.t =
  let open Gen in
  let* tname = name in
  let* n = int_range 0 5 in
  let* bounds = list_size (return n) (int_range 1 100_000) in
  let* counts = list_size (return n) (int_range 0 1_000) in
  return
    { Expirel_obs.Horizon.name = tname;
      bounds = Array.of_list bounds;
      counts = Array.of_list counts }

let horizon_report : Expirel_obs.Horizon.report Gen.t =
  let open Gen in
  let* now = counter in
  let* window = int_range 0 1_000 in
  let* fanout_events = counter in
  let* arrival_rate = map (fun i -> float_of_int i /. 8.) (int_range 0 800) in
  let* expiration_rate = map (fun i -> float_of_int i /. 8.) (int_range 0 800) in
  let* tables = list_size (int_range 0 4) horizon_table in
  let* shards = list_size (int_range 0 3) (pair name counter) in
  return
    { Expirel_obs.Horizon.now; window; fanout_events; arrival_rate;
      expiration_rate; tables; shards }

(* started_at travels as IEEE-754 bits, so any non-nan float round-trips
   exactly. *)
let trace_entry : Expirel_obs.Trace_store.entry Gen.t =
  let open Gen in
  let* node = name in
  let* trace_id = name in
  let* covered = name in
  let* started_at = map (fun i -> float_of_int i /. 16.) counter in
  let* total_us = counter in
  let* spans = list_size (int_range 0 5) span in
  return
    { Expirel_obs.Trace_store.node; trace_id; name = covered; started_at;
      total_us; spans }

let health_level : Expirel_obs.Health.level Gen.t =
  Gen.oneofl Expirel_obs.Health.[ Ok; Degraded; Critical ]

let health_report : Expirel_obs.Health.report Gen.t =
  let open Gen in
  let firing =
    let* rule_name = name in
    let* value = map (fun i -> float_of_int i /. 32.) counter in
    let* level = health_level in
    let* help = name in
    return { Expirel_obs.Health.rule_name; value; level; help }
  in
  let* level = health_level in
  let* firing = list_size (int_range 0 4) firing in
  return { Expirel_obs.Health.level; firing }

(* v7 slice partials: the per-group expiration slices a shard condenses
   a grouped aggregate into.  [s_fsum] travels as IEEE bits, so the
   i/8 floats round-trip exactly. *)
let slice : Expirel_exec.Partial_agg.slice Gen.t =
  let open Gen in
  let* s_texp = time in
  let* s_rows = int_range 0 1_000_000 in
  let* s_nonnull = int_range 0 1_000_000 in
  let* s_sum = value in
  let* s_fsum = map (fun i -> float_of_int i /. 8.) (int_range (-800) 800) in
  let* s_min = value in
  let* s_max = value in
  return
    { Expirel_exec.Partial_agg.s_texp; s_rows; s_nonnull; s_sum; s_fsum;
      s_min; s_max }

let agg_group : Expirel_exec.Partial_agg.group Gen.t =
  Gen.map2
    (fun key slices -> { Expirel_exec.Partial_agg.key; slices })
    row
    (Gen.list_size (Gen.int_range 0 4) slice)

(* v11 COUNT slices: only a texp and a row count, which travel as a
   varint pair. *)
let count_group : Expirel_exec.Partial_agg.group Gen.t =
  Gen.map2
    (fun key slices -> { Expirel_exec.Partial_agg.key; slices })
    row
    (Gen.list_size (Gen.int_range 0 3)
       (Gen.map2
          (fun s_texp s_rows ->
            { Expirel_exec.Partial_agg.s_texp;
              s_rows;
              s_nonnull = 0;
              s_sum = Value.Null;
              s_fsum = 0.;
              s_min = Value.Null;
              s_max = Value.Null
            })
          wide_time wide_int))

(* v16 kept reads: a held version and the [full] flag; the groups ride
   in the body's COUNT groups, a slice-less one for a group gone. *)
let held_groups : Wire.held_groups Gen.t =
  Gen.map2 (fun version full -> { Wire.version; full }) wide_int Gen.bool

(* v9: every body the statement envelope carries. *)
let shard_body : Wire.shard_body Gen.t =
  let open Gen in
  let columns = list_size (int_range 0 4) name in
  oneof
    [ (let* columns = columns in
       let* rows = list_size (int_range 0 8) (pair row time) in
       let* texp_e = time in
       let* recomputed = bool in
       return (Wire.Body_rows { columns; rows; texp_e; recomputed }));
      map (fun m -> Wire.Body_ack m) name;
      map2
        (fun columns payload -> Wire.Body_sketch { columns; payload })
        columns name;
      (let* columns = columns in
       let* child_texp = time in
       let* groups =
         oneof
           [ list_size (int_range 0 4) agg_group;
             list_size (int_range 0 4) count_group ]
       in
       let* held = option held_groups in
       return (Wire.Body_agg { columns; child_texp; groups; held })) ]

let response : Wire.response Gen.t =
  Gen.oneof
    [ Gen.map (fun m -> Wire.Ok_msg m) name;
      (let open Gen in
       let* columns = list_size (int_range 0 4) name in
       let* rows = list_size (int_range 0 8) (pair row time) in
       let* texp_e = time in
       let* recomputed = bool in
       return (Wire.Rows { columns; rows; texp_e; recomputed }));
      Gen.map2 (fun code message -> Wire.Err { code; message }) error_code name;
      Gen.map (fun e -> Wire.Event e) event;
      Gen.return Wire.Pong;
      Gen.return Wire.Bye;
      Gen.map2
        (fun position records -> Wire.Repl_snapshot { position; records })
        counter wal_records;
      Gen.map2
        (fun from_position records ->
          Wire.Repl_records { from_position; records })
        counter wal_records;
      Gen.map2
        (fun position now -> Wire.Repl_heartbeat { position; now })
        counter time;
      Gen.map (fun s -> Wire.Metrics_reply s) name;
      Gen.map
        (fun es -> Wire.Traces_reply es)
        (Gen.list_size (Gen.int_range 0 4) trace_entry);
      Gen.map (fun report -> Wire.Health_reply report) health_report;
      (* v20: a pong names the node's boot *)
      Gen.map3
        (fun boot_id now partition -> Wire.Shard_pong { boot_id; now; partition })
        name time partition_texp;
      (* v8: the forecast reply carries the report verbatim *)
      Gen.map (fun r -> Wire.Horizon_reply r) horizon_report;
      (* v9: the statement envelope *)
      Gen.map2
        (fun partition body -> Wire.Shard_reply { partition; body })
        partition_texp shard_body ]

(* v14: a held answer, whole or a delta against a base version. *)
let held_body : Wire.held_body Gen.t =
  let open Gen in
  let columns = list_size (int_range 0 4) name in
  let rows = list_size (int_range 0 8) (pair row time) in
  oneof
    [ (let* columns = columns in
       let* rows = rows in
       let* texp_e = time in
       let* recomputed = bool in
       return (Wire.Held_whole { columns; rows; texp_e; recomputed }));
      (let* base = wide_int in
       let* columns = columns in
       let* upserts = rows in
       let* removed = list_size (int_range 0 6) row in
       let* texp_e = time in
       let* recomputed = bool in
       return
         (Wire.Held_delta { base; columns; upserts; removed; texp_e; recomputed })) ]

let response =
  Gen.oneof
    [ response;
      Gen.map2 (fun version body -> Wire.Held_rows { version; body }) wide_int held_body ]

(* ---------- round-trip properties ---------- *)

let roundtrip_request =
  Generators.qtest "request round-trip" ~count:500 request (fun r ->
      Wire.decode_request (Wire.encode_request r) = Ok r)

let roundtrip_response =
  Generators.qtest "response round-trip" ~count:500 response (fun r ->
      Wire.decode_response (Wire.encode_response r) = Ok r)

let frame_extracts =
  Generators.qtest "frame/extract round-trip" ~count:300 response (fun r ->
      let payload = Wire.encode_response r in
      match Frame.extract (Frame.frame payload) with
      | Frame.Complete { payload = p; consumed } ->
        p = payload && consumed = 4 + String.length payload
      | Frame.Incomplete | Frame.Malformed _ -> false)

let extract_sequence =
  Generators.qtest "extract walks concatenated frames" ~count:200
    (Gen.list_size (Gen.int_range 1 5) request)
    (fun reqs ->
      let payloads = List.map Wire.encode_request reqs in
      let buf = String.concat "" (List.map Frame.frame payloads) in
      let rec walk pos acc =
        match Frame.extract ~pos buf with
        | Frame.Complete { payload; consumed } -> walk (pos + consumed) (payload :: acc)
        | Frame.Incomplete -> List.rev acc
        | Frame.Malformed _ -> []
      in
      walk 0 [] = payloads)

(* ---------- adversarial decoding: errors, never exceptions ---------- *)

let decodes_cleanly data =
  (match Wire.decode_request data with Ok _ | Error _ -> true)
  && (match Wire.decode_response data with Ok _ | Error _ -> true)

let truncation_errors =
  Generators.qtest "truncated payloads error, never raise" ~count:300
    (Gen.pair response (Gen.int_range 0 99))
    (fun (r, cut) ->
      let payload = Wire.encode_response r in
      let n = String.length payload in
      (* every strict prefix must decode to Error (or, for requests, at
         worst a clean Ok on a coincidentally-valid prefix — never raise) *)
      let k = if n = 0 then 0 else cut mod n in
      let prefix = String.sub payload 0 k in
      decodes_cleanly prefix
      && Wire.decode_response prefix <> Ok r)

let truncated_requests_error =
  Generators.qtest "truncated requests error, never raise" ~count:300
    (Gen.pair request (Gen.int_range 0 99))
    (fun (r, cut) ->
      let payload = Wire.encode_request r in
      let n = String.length payload in
      let k = if n = 0 then 0 else cut mod n in
      let prefix = String.sub payload 0 k in
      decodes_cleanly prefix && Wire.decode_request prefix <> Ok r)

let trailing_garbage_errors =
  Generators.qtest "trailing garbage is rejected" ~count:300
    (Gen.pair request Gen.char)
    (fun (r, c) ->
      match Wire.decode_request (Wire.encode_request r ^ String.make 1 c) with
      | Error _ -> true
      | Ok _ -> false)

let junk_never_raises =
  Generators.qtest "random junk decodes cleanly" ~count:1000
    (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64))
    (fun junk ->
      decodes_cleanly junk
      &&
      match Frame.extract junk with
      | Frame.Incomplete | Frame.Complete _ | Frame.Malformed _ -> true)

let test_unknown_tag () =
  let bad = Printf.sprintf "%c%c" (Char.chr Wire.version) (Char.chr 0xEE) in
  (match Wire.decode_request bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown request tag accepted");
  match Wire.decode_response bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown response tag accepted"

let test_wrong_version () =
  let payload = Wire.encode_request Wire.Ping in
  let bad = Bytes.of_string payload in
  Bytes.set bad 0 (Char.chr (Wire.version + 1));
  match Wire.decode_request (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future protocol version accepted"

(* A v1 payload (version byte 1, the v1 PING layout: just the tag) must
   be rejected by the v2 decoder, and [payload_version] must still read
   the foreign version so the server can answer with the typed
   [Version_mismatch] — the exact check [Server] performs. *)
let test_v1_payload_detected () =
  let v1_ping = "\x01\x05" in
  (match Wire.decode_request v1_ping with
   | Error reason ->
     if not (String.length reason > 0) then Alcotest.fail "empty reason"
   | Ok _ -> Alcotest.fail "v1 payload accepted by a v2 decoder");
  Alcotest.(check (option int)) "payload_version reads v1" (Some 1)
    (Wire.payload_version v1_ping);
  Alcotest.(check (option int)) "payload_version on empty" None
    (Wire.payload_version "");
  (* The typed error itself round-trips, so a v1 peer can at least
     render it (the Err layout is stable across versions). *)
  let err = Wire.Err { code = Wire.Version_mismatch; message = "v1 vs v2" } in
  match Wire.decode_response (Wire.encode_response err) with
  | Ok r when r = err -> ()
  | Ok _ | Error _ -> Alcotest.fail "Version_mismatch error does not round-trip"

(* v9 folded the v8 shard requests and replies into [Shard_exec] and
   [Shard_reply].  A v8 payload — here v8's [Exec_shard], tag 15 — must
   not decode, and [payload_version] must read 8 so a server answers
   [Version_mismatch].  Under the current version byte the removed tags
   are unknown, whatever follows them: v20 retired the shard-map
   handshake too (requests 13 and 14, reply 15). *)
let test_v8_shard_payloads_refused () =
  let body = "\x00\x00\x00\x08SELECT 1\x00" (* sql, no trace context *) in
  let v8_exec_shard = "\x08\x0f" ^ body in
  (match Wire.decode_request v8_exec_shard with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "v8 Exec_shard accepted by a v9 decoder");
  Alcotest.(check (option int)) "payload_version reads v8" (Some 8)
    (Wire.payload_version v8_exec_shard);
  (* v9's STATS request (tag 4) and its reply (tag 5: eight counters,
     an empty latency list, no replication section) are refused too. *)
  let v9_stats = "\x09\x04" in
  let v9_stats_reply =
    "\x09\x05" ^ String.make 64 '\x00' ^ "\x00\x00\x00\x00" ^ "\x00"
  in
  Alcotest.(check (option int)) "payload_version reads v9" (Some 9)
    (Wire.payload_version v9_stats);
  Alcotest.(check (option int)) "payload_version reads v9 reply" (Some 9)
    (Wire.payload_version v9_stats_reply);
  (match Wire.decode_request v9_stats with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "v9 Stats accepted by a v10 decoder");
  (match Wire.decode_response v9_stats_reply with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "v9 STATS reply accepted by a v10 decoder");
  let unknown ~what decode tag =
    let payload =
      String.make 1 (Char.chr Wire.version)
      ^ String.make 1 (Char.chr tag)
      ^ body
    in
    Alcotest.(check (result reject string))
      (Printf.sprintf "%s tag %d is unknown" what tag)
      (Error (Printf.sprintf "bad %s: unknown %s tag %d" what what tag))
      (Result.map ignore (decode payload))
  in
  List.iter (unknown ~what:"request" Wire.decode_request) [ 4; 13; 14; 15; 20; 21; 22 ];
  List.iter (unknown ~what:"response" Wire.decode_response) [ 5; 15; 16; 17; 20; 21 ]

(* v12 moved every field onto the one varint codec: a v11 payload —
   here a Ping, and a one-row Rows reply with its fixed-width column
   count — is refused, and [payload_version] reads 11 so a server
   answers [Version_mismatch]. *)
let test_v11_payload_refused () =
  let v11_ping = "\x0b\x05" in
  let v11_rows = "\x0b\x02\x00\x00\x00\x01\x00\x00\x00\x01a" in
  Alcotest.(check (option int)) "payload_version reads v11" (Some 11)
    (Wire.payload_version v11_ping);
  List.iter
    (fun (what, decode, payload) ->
      match decode payload with
      | Error reason ->
        Alcotest.(check string) (what ^ " names both versions")
          (Printf.sprintf "bad %s: protocol version 11, expected %d" what Wire.version)
          reason
      | Ok () -> Alcotest.failf "v11 %s accepted by a v12 decoder" what)
    [ ("request", (fun p -> Result.map ignore (Wire.decode_request p)), v11_ping);
      ("response", (fun p -> Result.map ignore (Wire.decode_response p)), v11_rows) ]

(* v14 added the client's [Statement] request and its [Held_rows]
   reply: a v13 payload is refused, and [payload_version] reads 13 so
   a server answers [Version_mismatch]. *)
let test_v13_payload_refused () =
  let v13_exec = "\x0d\x01\x08SELECT 1" in
  Alcotest.(check (option int)) "payload_version reads v13" (Some 13)
    (Wire.payload_version v13_exec);
  match Wire.decode_request v13_exec with
  | Error reason ->
    Alcotest.(check string) "names both versions"
      (Printf.sprintf "bad request: protocol version 13, expected %d" Wire.version)
      reason
  | Ok _ -> Alcotest.fail "a v13 EXEC accepted by a v14 decoder"

(* v18: a HORIZON reply carries a coordinator's per-shard live rows
   after the tables; a node's report ends with the empty list. *)
let test_horizon_shards () =
  let report shards =
    { Expirel_obs.Horizon.now = 12; window = 16; fanout_events = 2;
      arrival_rate = 0.5; expiration_rate = 0.25;
      tables = [ { name = "pol"; bounds = [| 4; max_int |]; counts = [| 2; 1 |] } ];
      shards }
  in
  let round what r =
    let payload = Wire.encode_response (Wire.Horizon_reply r) in
    Alcotest.(check bool) (what ^ ": decodes to itself") true
      (Wire.decode_response payload = Ok (Wire.Horizon_reply r));
    payload
  in
  let node = round "a node's report" (report []) in
  Alcotest.(check char) "an empty shard list is one byte" '\x00'
    node.[String.length node - 1];
  let cluster = round "a coordinator's report" (report [ ("0", 2); ("1", 0); ("2", 1) ]) in
  Alcotest.(check bool) "the breakdown renders a line per shard" true
    (match Wire.decode_response cluster with
     | Ok (Wire.Horizon_reply r) ->
       let lines = String.split_on_char '\n' (Expirel_obs.Horizon.render r) in
       List.for_all
         (fun line -> List.mem line lines)
         [ "shard 0: live=2"; "shard 1: live=0"; "shard 2: live=1" ]
     | _ -> false)

(* v17 ships the trace store's entries and the health report as they
   are, yet TRACE and HEALTH bodies keep their v16 bytes.  The hex after
   the version byte was taken from the v16 encoder's output for the
   same values. *)
let test_trace_health_layout () =
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let check what v16 response =
    let payload = Wire.encode_response response in
    Alcotest.(check int) (what ^ ": version byte") Wire.version
      (Char.code payload.[0]);
    Alcotest.(check string) (what ^ ": body as in v16") v16
      (hex (String.sub payload 1 (String.length payload - 1)));
    Alcotest.(check bool) (what ^ ": decodes to itself") true
      (Wire.decode_response payload = Ok response)
  in
  let spans =
    [ { Expirel_obs.Trace.name = "op:seq-scan"; id = 2; parent = Some 1;
        start_us = 12; duration_us = 300;
        labels = [ ("rows", "42"); ("dropped", "0") ] };
      { name = "eval"; id = 1; parent = None; start_us = 5;
        duration_us = 1_500; labels = [] } ]
  in
  check "TRACE"
    "0d02077072696d61727903742d310f53454c45435420612046524f4d207300001040fc\
     54d9418020020b6f703a7365712d7363616e04010218d8040204726f77730234320764\
     726f707065640130046576616c02000ab817000773686172642d3003742d3204544943\
     4b000000000000e03f0e00"
    (Wire.Traces_reply
       [ { Expirel_obs.Trace_store.node = "primary"; trace_id = "t-1";
           name = "SELECT a FROM s"; started_at = 1_700_000_000.25;
           total_us = 2_048; spans };
         { node = "shard-0"; trace_id = "t-2"; name = "TICK";
           started_at = 0.5; total_us = 7; spans = [] } ]);
  check "HEALTH"
    "0e0302087265706c5f6c61670000000000000c40030b7265706c696361206c616709686974\
     5f726174696f000000000000c03f020a636163686520636f6c64"
    (Wire.Health_reply
       { level = Critical;
         firing =
           [ { Expirel_obs.Health.rule_name = "repl_lag"; value = 3.5;
               level = Critical; help = "replica lag" };
             { rule_name = "hit_ratio"; value = 0.125; level = Degraded;
               help = "cache cold" } ] });
  check "HEALTH ok" "0e0100" (Wire.Health_reply { level = Ok; firing = [] })

(* Every strict prefix of a held request or reply errors, and so does
   one byte of trailing garbage. *)
let test_held_truncation_garbage () =
  let payloads =
    [ ( "statement",
        (fun p -> Result.map ignore (Wire.decode_request p)),
        Wire.encode_request
          (Wire.Statement
             { sql = "SELECT a FROM s";
               ctx = Some { Wire.trace_id = "t-1"; parent_span = 3 };
               held = Some 300
             }) );
      ( "delta",
        (fun p -> Result.map ignore (Wire.decode_response p)),
        Wire.encode_response
          (Wire.Held_rows
             { version = 301;
               body =
                 Wire.Held_delta
                   { base = 300;
                     columns = [ "a"; "n" ];
                     upserts = [ ([ Value.Int 4; Value.Int 2 ], Time.of_int 40) ];
                     removed = [ [ Value.Int 5; Value.Str "x" ] ];
                     texp_e = Time.of_int 30;
                     recomputed = false
                   }
             }) );
      ( "whole",
        (fun p -> Result.map ignore (Wire.decode_response p)),
        Wire.encode_response
          (Wire.Held_rows
             { version = 7;
               body =
                 Wire.Held_whole
                   { columns = [ "a" ];
                     rows = [ ([ Value.Int 1 ], Time.Inf) ];
                     texp_e = Time.Inf;
                     recomputed = true
                   }
             }) ) ]
  in
  List.iter
    (fun (what, decode, payload) ->
      Alcotest.(check bool) (what ^ " decodes") true (decode payload = Ok ());
      for k = 0 to String.length payload - 1 do
        match decode (String.sub payload 0 k) with
        | Error _ -> ()
        | Ok () -> Alcotest.failf "%s cut at %d decoded" what k
      done;
      match decode (payload ^ "\x00") with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s with trailing garbage decoded" what)
    payloads;
  (* an unknown body byte *)
  let bad = Printf.sprintf "%c\x18\x02\x03" (Char.chr Wire.version) in
  match Wire.decode_response bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "held body byte 3 accepted"

(* ---------- held answers: a delta patches the copy it was cut from ---------- *)

let small_relation =
  Gen.map
    (fun rows ->
      Relation.of_list ~arity:2
        (List.map (fun (a, b, e) -> (Tuple.ints [ a; b ], Time.of_int e)) rows))
    (Gen.list_size (Gen.int_range 0 40)
       (Gen.triple (Gen.int_range 0 12) (Gen.int_range 0 3) (Gen.int_range 1 6)))

let wire_rows r = List.map (fun (t, e) -> (Tuple.to_list t, e)) (Relation.to_list r)

(* [before] and an [after] made from it by random edits, so most rows
   are shared by pointer as in a path-copied answer, or an unrelated
   one. *)
let relation_pair =
  let open Gen in
  let* before = small_relation in
  let* edits =
    list_size (int_range 0 8)
      (triple (int_range 0 12) (int_range 0 3) (option (int_range 1 6)))
  in
  let* unrelated = small_relation in
  let* fresh = bool in
  let edited =
    List.fold_left
      (fun r (a, b, e) ->
        match e with
        | Some e -> Relation.replace (Tuple.ints [ a; b ]) ~texp:(Time.of_int e) r
        | None -> Relation.remove (Tuple.ints [ a; b ]) r)
      before edits
  in
  return (before, if fresh then unrelated else edited)

let patch_law =
  Generators.qtest "patching the diff's delta reproduces the new answer" ~count:500
    relation_pair (fun (before, after) ->
      match Relation.diff ~limit:max_int before after with
      | None -> false
      | Some (upserts, removed, n) ->
        n = Relation.cardinal after
        && Wire.patch (wire_rows before)
          ~upserts:(wire_rows (Relation.of_list ~arity:2 upserts))
          ~removed:(List.map Tuple.to_list removed)
        = Ok (wire_rows after))

let diff_limit_law =
  Generators.qtest "diff gives up exactly past its limit" ~count:300
    (Gen.pair relation_pair (Gen.int_range 0 20)) (fun ((before, after), limit) ->
      match
        (Relation.diff ~limit:max_int before after, Relation.diff ~limit before after)
      with
      | Some (u, r, n), Some d -> List.length u + List.length r <= limit && d = (u, r, n)
      | Some (u, r, _), None -> List.length u + List.length r > limit
      | None, _ -> false)

(* A delta that does not fit the copy is an error, never an answer. *)
let test_patch_refuses () =
  let rows =
    [ ([ Value.Int 1 ], Time.of_int 5); ([ Value.Int 3 ], Time.of_int 5) ]
  in
  let refused what ~upserts ~removed =
    match Wire.patch rows ~upserts ~removed with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was patched" what
  in
  refused "a removal of a row the copy lacks" ~upserts:[] ~removed:[ [ Value.Int 2 ] ];
  refused "edits out of order"
    ~upserts:[ ([ Value.Int 4 ], Time.Inf); ([ Value.Int 2 ], Time.Inf) ]
    ~removed:[];
  refused "an upsert and a removal of one tuple"
    ~upserts:[ ([ Value.Int 3 ], Time.Inf) ]
    ~removed:[ [ Value.Int 3 ] ];
  Alcotest.(check bool) "a fitting delta patches" true
    (Wire.patch rows
       ~upserts:[ ([ Value.Int 2 ], Time.Inf) ]
       ~removed:[ [ Value.Int 3 ] ]
    = Ok [ ([ Value.Int 1 ], Time.of_int 5); ([ Value.Int 2 ], Time.Inf) ])

let test_empty_payload () =
  (match Wire.decode_request "" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty request accepted");
  match Wire.decode_response "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty response accepted"

let test_oversized_length_prefix () =
  (* A length prefix beyond [max_frame] means the stream is hostile or
     desynchronised: Malformed, not a 16 MiB+ allocation. *)
  let b = Buffer.create 4 in
  Buffer.add_int32_be b (Int32.of_int (Frame.max_frame + 1));
  Buffer.add_string b "xxxx";
  match Frame.extract (Buffer.contents b) with
  | Frame.Malformed _ -> ()
  | Frame.Incomplete -> Alcotest.fail "oversized prefix treated as incomplete"
  | Frame.Complete _ -> Alcotest.fail "oversized prefix produced a frame"

let test_short_header_incomplete () =
  (* Fewer than 4 bytes is just a partial read, not an error. *)
  List.iter
    (fun s ->
      match Frame.extract s with
      | Frame.Incomplete -> ()
      | Frame.Complete _ | Frame.Malformed _ ->
        Alcotest.fail "short header not reported Incomplete")
    [ ""; "\x00"; "\x00\x00\x00" ]

(* Cutting a move anywhere must decode to Error — a half-read move
   would drop rows. *)
let truncated_shard_map_errors =
  Generators.qtest "truncated shard map errors, never raises" ~count:300
    (Gen.pair move_rows (Gen.int_range 0 9999))
    (fun (request, cut) ->
      let payload = Wire.encode_request request in
      let n = String.length payload in
      let k = if n = 0 then 0 else cut mod n in
      let prefix = String.sub payload 0 k in
      decodes_cleanly prefix && Wire.decode_request prefix <> Ok request)

(* A hostile shard count must be rejected before any proportional
   allocation, like the Rows case below: here the per-shard list a
   coordinator's [Horizon_reply] ends with, the one list of shards on
   the wire. *)
let test_hostile_shard_count () =
  let empty =
    Wire.encode_response
      (Wire.Horizon_reply
         { Expirel_obs.Horizon.now = 0; window = 1; fanout_events = 0;
           arrival_rate = 0.; expiration_rate = 0.; tables = []; shards = [] })
  in
  (* The empty shard list is the payload's last byte: a zero count. *)
  Alcotest.(check char) "ends with the shard count" '\000' empty.[String.length empty - 1];
  let hostile =
    String.sub empty 0 (String.length empty - 1)
    ^ "\xff\xff\xff\xff\x07" (* shard count 2^31 - 1, a varint *)
  in
  match Wire.decode_response hostile with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hostile shard count accepted"

(* A pong renders the boot id a coordinator tells a restart by. *)
let test_pong_renders_boot () =
  Alcotest.(check string) "rendered pong"
    "shard booted b00t: now 7, 2 live row(s), texp in [9, 12]"
    (Wire.render_response
       (Wire.Shard_pong
          { boot_id = "b00t";
            now = Time.of_int 7;
            partition =
              { Wire.live_rows = 2; min_texp = Time.of_int 9; max_texp = Time.of_int 12 }
          }))

(* Routing is a wire-level contract (every coordinator must agree), so
   pin it down: the owner is always a shard in the map, the choice is
   deterministic, and it depends only on the key, not the row tail. *)
let shard_owner_in_map =
  Generators.qtest "shard_owner picks a shard from the map" ~count:300
    (Gen.pair
       (Gen.map2
          (fun map_version shards -> { Wire.map_version; shards })
          (Gen.int_range 0 1_000)
          (Gen.list_size (Gen.int_range 1 6) shard))
       value)
    (fun (map, key) ->
      let owner = Wire.shard_owner map key in
      owner = Wire.shard_owner map key
      && List.exists
           (fun (s : Wire.shard) -> s.shard_id = owner)
           map.Wire.shards)

let map_of n =
  { Wire.map_version = 1;
    shards =
      List.init n (fun i ->
          { Wire.shard_id = i; shard_host = "h"; shard_port = i })
  }

(* An [Int] key's owner is fixed forever: data placed by an earlier
   build (and a preload routed by [shard_owner (Value.int k)]) must stay
   where routing looks for it.  Owners under 2, 3, 5 and 7 shards. *)
let test_int_owners_pinned () =
  List.iter
    (fun (n, owners) ->
      Alcotest.(check (list int))
        (Printf.sprintf "owners of %d" n)
        owners
        (List.map (fun s -> Wire.shard_owner (map_of s) (Value.int n))
           [ 2; 3; 5; 7 ]))
    [ (0, [ 1; 2; 2; 0 ]);
      (1, [ 0; 0; 3; 2 ]);
      (2, [ 1; 1; 4; 4 ]);
      (3, [ 0; 2; 0; 6 ]);
      (5, [ 0; 1; 2; 3 ]);
      (7, [ 0; 0; 4; 0 ]);
      (42, [ 1; 2; 4; 0 ]);
      (-1, [ 1; 2; 0; 5 ]);
      (-17, [ 1; 0; 3; 4 ]);
      (1000, [ 0; 0; 2; 2 ]);
      (123456789, [ 1; 0; 3; 1 ]);
      (1 lsl 53, [ 1; 2; 1; 1 ]);
      (-(1 lsl 53), [ 0; 1; 3; 3 ]);
      (max_int, [ 1; 0; 2; 2 ]);
      (min_int, [ 1; 0; 1; 6 ]) ]

(* Routing agrees with [Value.cmp]: an integral [Float] within 2^53
   lives with the [Int] it equals, so [WHERE k = 1] finds a stored
   [1.0] on the one shard it asks. *)
let int_float_owners_agree =
  let bound = 1 lsl 53 in
  Generators.qtest "shard_owner: Int n and Float n share an owner" ~count:500
    (Gen.pair (Gen.int_range 1 7)
       (Gen.oneof
          [ Gen.int_range (-1000) 1000;
            Gen.int_range (-bound) bound;
            Gen.map (fun d -> bound - d) (Gen.int_range 0 16);
            Gen.map (fun d -> d - bound) (Gen.int_range 0 16) ]))
    (fun (shards, n) ->
      let map = map_of shards in
      Wire.shard_owner map (Value.int n)
      = Wire.shard_owner map (Value.float (float_of_int n)))

(* [Wire.value_hash] folds FNV-1a over a value's canonical bytes without
   building them; here they are built in a [Buffer], as the definition
   reads, and hashed afterwards.  The two must agree on every value,
   for routing and every preload partition depend on the hash. *)
let buffered_value_hash v =
  let b = Buffer.create 16 in
  let add_int n =
    Buffer.add_char b '\002';
    Buffer.add_int64_be b n
  in
  (match v with
   | Value.Null -> Buffer.add_char b '\000'
   | Value.Bool x ->
     Buffer.add_char b '\001';
     Buffer.add_char b (if x then '\001' else '\000')
   | Value.Int n -> add_int (Int64.of_int n)
   | Value.Float f when Float.is_integer f && Float.abs f <= 0x1p53 ->
     add_int (Int64.of_float f)
   | Value.Float f ->
     Buffer.add_char b '\003';
     Buffer.add_int64_be b (Int64.bits_of_float f)
   | Value.Str s ->
     Buffer.add_char b '\004';
     Buffer.add_string b s);
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch ->
      h := !h lxor Char.code ch;
      h := !h * 0x01000193 land 0xffffffff)
    (Buffer.contents b);
  !h

let value_hash_matches_bytes =
  let p53 = 0x1p53 in
  let near f = Gen.map (fun d -> f +. float_of_int d) (Gen.int_range (-4) 4) in
  Generators.qtest "value_hash = FNV-1a over the buffered bytes" ~count:1_000
    (Gen.oneof
       [ Gen.map Value.int Gen.int;
         Gen.map Value.int
           (Gen.oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; -1; 1 lsl 53; -(1 lsl 53) ]);
         Gen.map Value.float (Gen.oneof [ near p53; near (-.p53); near (2. *. p53); near (-2. *. p53) ]);
         Gen.map Value.float
           (Gen.oneofl [ Float.nan; -.Float.nan; 0.; -0.; Float.infinity; Float.neg_infinity; 1e300; -1e-300 ]);
         Gen.map Value.float Gen.float;
         Gen.map (fun n -> Value.float (float_of_int n)) (Gen.int_range (-1_000) 1_000);
         Gen.map (fun s -> Value.Str s) Gen.string;
         Gen.map (fun b -> Value.Bool b) Gen.bool;
         Gen.return Value.Null;
         value ])
    (fun v -> Wire.value_hash v = buffered_value_hash v)

let test_hostile_list_count () =
  (* A Rows body claiming millions of rows in a tiny payload must be
     rejected before any proportional allocation happens. *)
  let b = Buffer.create 16 in
  Buffer.add_char b (Char.chr Wire.version);
  Buffer.add_char b (Char.chr 2) (* Rows tag *);
  Buffer.add_string b "\xff\xff\xff\xff\x07" (* column count 2^31 - 1, a varint *);
  match Wire.decode_response (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hostile element count accepted"

let suite =
  [ roundtrip_request;
    roundtrip_response;
    frame_extracts;
    extract_sequence;
    truncation_errors;
    truncated_requests_error;
    trailing_garbage_errors;
    junk_never_raises;
    truncated_shard_map_errors;
    shard_owner_in_map;
    Alcotest.test_case "Int owners are pinned" `Quick test_int_owners_pinned;
    int_float_owners_agree;
    value_hash_matches_bytes;
    Alcotest.test_case "hostile shard count" `Quick test_hostile_shard_count;
    Alcotest.test_case "a pong renders its boot id" `Quick test_pong_renders_boot;
    Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
    Alcotest.test_case "wrong version" `Quick test_wrong_version;
    Alcotest.test_case "v1 payload detected" `Quick test_v1_payload_detected;
    Alcotest.test_case "v8 shard payloads refused" `Quick
      test_v8_shard_payloads_refused;
    Alcotest.test_case "v11 payload refused" `Quick test_v11_payload_refused;
    Alcotest.test_case "v13 payload refused" `Quick test_v13_payload_refused;
    Alcotest.test_case "TRACE and HEALTH bodies keep their v16 bytes" `Quick
      test_trace_health_layout;
    Alcotest.test_case "a HORIZON report round-trips with and without shards" `Quick
      test_horizon_shards;
    Alcotest.test_case "held payloads: truncation and garbage" `Quick
      test_held_truncation_garbage;
    patch_law;
    diff_limit_law;
    Alcotest.test_case "a delta that does not fit is refused" `Quick
      test_patch_refuses;
    Alcotest.test_case "empty payload" `Quick test_empty_payload;
    Alcotest.test_case "oversized length prefix" `Quick test_oversized_length_prefix;
    Alcotest.test_case "short header is incomplete" `Quick test_short_header_incomplete;
    Alcotest.test_case "hostile list count" `Quick test_hostile_list_count ]
