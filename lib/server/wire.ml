open Expirel_core
open Expirel_storage

let version = 20

type error_code =
  | Parse_error
  | Exec_error
  | Proto_error
  | Timeout
  | Overloaded
  | Shutting_down
  | Version_mismatch
  | Shard_failed
      (* a shard died or answered garbage mid-scatter-gather: the
         distributed query cannot be answered from the surviving rest *)

type event =
  | Row_expired of { subscription : string; row : Value.t list; at : Time.t }
  | Row_appeared of {
      subscription : string;
      row : Value.t list;
      texp : Time.t;
      at : Time.t;
    }
  | Refreshed of { subscription : string; at : Time.t }

type trace_ctx = {
  trace_id : string;
  parent_span : int;
}

(* Span ids are 1-based, so [parent_span = 0] stands for "no open span
   at the caller". *)
let ctx_of_trace tr =
  { trace_id = Expirel_obs.Trace.trace_id tr;
    parent_span =
      Option.value ~default:0 (Expirel_obs.Trace.current_parent tr)
  }

let trace_of_ctx { trace_id; parent_span } =
  Expirel_obs.Trace.create ~trace_id
    ?parent_span:(if parent_span = 0 then None else Some parent_span)
    ()

type shard = {
  shard_id : int;
  shard_host : string;
  shard_port : int;
}

type shard_map = {
  map_version : int;
  shards : shard list;
}

type partition_texp = {
  live_rows : int;
  min_texp : Time.t;
  max_texp : Time.t;
}

(* The one partitioning function both sides of the wire agree on:
   FNV-1a over the value's canonical wire encoding, so any two
   processes speaking v5 route a key to the same shard.  The bytes are
   folded as they are made: nothing is allocated.  Polymorphic
   [Hashtbl.hash] is deliberately avoided — its result is not part of
   any documented contract.  An integral [Float] within +-2^53 hashes
   as the [Int] it equals, so a key lives where [Value.cmp] looks for
   it: [WHERE k = 1] matches a stored [1.0]. *)
let byte h c = (h lxor c) * 0x01000193 land 0xffffffff

(* The big-endian bytes of [n] from bit [shift] down. *)
let rec int_bytes h n shift =
  if shift < 0 then h else int_bytes (byte h ((n asr shift) land 255)) n (shift - 8)

let rec str_bytes h s i =
  if i = String.length s then h else str_bytes (byte h (Char.code s.[i])) s (i + 1)

let value_hash v =
  let h = 0x811c9dc5 in
  match v with
  | Value.Null -> byte h 0
  | Value.Bool x -> byte (byte h 1) (if x then 1 else 0)
  | Value.Int n -> int_bytes (byte h 2) n 56
  | Value.Float f when Float.is_integer f && Float.abs f <= 0x1p53 ->
    int_bytes (byte h 2) (int_of_float f) 56
  | Value.Float f ->
    let bits = Int64.bits_of_float f in
    (* the top byte from the 64 bits, the other seven from the low 63 *)
    let h = byte (byte h 3) (Int64.to_int (Int64.shift_right_logical bits 56)) in
    int_bytes h (Int64.to_int bits) 48
  | Value.Str s -> str_bytes (byte h 4) s 0

let shard_owner map key =
  match map.shards with
  | [] -> invalid_arg "Wire.shard_owner: empty shard map"
  | shards ->
    let n = List.length shards in
    (List.nth shards (value_hash key mod n)).shard_id

type want =
  | Want_rows
  | Want_sketch
  | Want_agg of int option

type held_groups = {
  version : int;
  full : bool;
}

type shard_body =
  | Body_rows of {
      columns : string list;
      rows : (Value.t list * Time.t) list;
      texp_e : Time.t;
      recomputed : bool;
    }
  | Body_ack of string
  | Body_sketch of {
      columns : string list;
      payload : string;
          (* an Expirel_sketch.Any.to_string encoding, opaque to the
             wire layer: the coordinator decodes and merges partials *)
    }
  | Body_agg of {
      columns : string list;
      child_texp : Time.t;  (* texp(e) of the shard-local child *)
      groups : Expirel_exec.Partial_agg.group list;
          (* per-group expiration-slice partials; the coordinator
             merges them across shards and finalises once *)
      held : held_groups option;
          (* for a request naming a version the shard answered from its
             standing COUNT entry: then [groups] are the groups changed
             since (a slice-less group for one gone), or every group *)
    }

type request =
  | Exec of string
  | Subscribe of { name : string; query : string }
  | Unsubscribe of string
  | Ping
  | Quit
  | Replicate of {
      replica_id : string;
      position : int;
      ctx : trace_ctx option;
    }
  | Metrics
  | Slow_queries of int
  | Exec_traced of { sql : string; ctx : trace_ctx }
  | Trace_recent of int
  | Health
  | Shard_ping
  | Horizon of string option
      (* the forward expiration forecast — bucketed counts of rows
         expiring within the next Δ ticks, fan-out forecast, churn
         rates; [Some table] restricts to one table *)
  | Shard_exec of { sql : string; ctx : trace_ctx option; want : want }
  | Statement of { sql : string; ctx : trace_ctx option; held : int option }
  | Move_rows of {
      table : string;
      add : (Value.t list * Time.t) list;
      remove : Value.t list list;
    }

type held_body =
  | Held_whole of {
      columns : string list;
      rows : (Value.t list * Time.t) list;
      texp_e : Time.t;
      recomputed : bool;
    }
  | Held_delta of {
      base : int;
      columns : string list;
      upserts : (Value.t list * Time.t) list;
      removed : Value.t list list;
      texp_e : Time.t;
      recomputed : bool;
    }

type response =
  | Ok_msg of string
  | Rows of {
      columns : string list;
      rows : (Value.t list * Time.t) list;
      texp_e : Time.t;
      recomputed : bool;
    }
  | Err of { code : error_code; message : string }
  | Event of event
  | Pong
  | Bye
  | Repl_snapshot of { position : int; records : Wal.record list }
  | Repl_records of { from_position : int; records : Wal.record list }
  | Repl_heartbeat of { position : int; now : Time.t }
  | Metrics_reply of string
  | Traces_reply of Expirel_obs.Trace_store.entry list
  | Health_reply of Expirel_obs.Health.report
  | Shard_pong of {
      boot_id : string;
      now : Time.t;
      partition : partition_texp;
    }
  | Horizon_reply of Expirel_obs.Horizon.report
      (* bucket counts are disjoint row sets, so the coordinator merges
         per-shard replies by bucket-wise addition — exactly *)
  | Shard_reply of { partition : partition_texp; body : shard_body }
  | Held_rows of { version : int; body : held_body }

(* ---------- writer ---------- *)

(* Every field goes through the one codec ({!Expirel_core.Codec}); a
   payload is the version byte, the message tag byte and the body. *)
open Codec

let put_row b (values, texp) =
  put_list b put_value values;
  put_time b texp

let code_of_error = function
  | Parse_error -> 1
  | Exec_error -> 2
  | Proto_error -> 3
  | Timeout -> 4
  | Overloaded -> 5
  | Shutting_down -> 6
  | Version_mismatch -> 7
  | Shard_failed -> 8

let put_event b = function
  | Row_expired { subscription; row; at } ->
    put_u8 b 1;
    put_str b subscription;
    put_list b put_value row;
    put_time b at
  | Row_appeared { subscription; row; texp; at } ->
    put_u8 b 2;
    put_str b subscription;
    put_list b put_value row;
    put_time b texp;
    put_time b at
  | Refreshed { subscription; at } ->
    put_u8 b 3;
    put_str b subscription;
    put_time b at

let payload tag body =
  let b = Buffer.create 64 in
  put_u8 b version;
  put_u8 b tag;
  body b;
  Buffer.contents b

let put_ctx b { trace_id; parent_span } =
  put_str b trace_id;
  put_int b parent_span

let put_partition b p =
  put_int b p.live_rows;
  put_time b p.min_texp;
  put_time b p.max_texp

let put_slice b (s : Expirel_exec.Partial_agg.slice) =
  put_time b s.s_texp;
  put_int b s.s_rows;
  put_int b s.s_nonnull;
  put_value b s.s_sum;
  put_f64 b s.s_fsum;
  put_value b s.s_min;
  put_value b s.s_max

let put_group b (g : Expirel_exec.Partial_agg.group) =
  put_list b put_value g.key;
  put_list b put_slice g.slices

(* A COUNT slice carries only its texp and its row count; a group of
   such slices ships as [(texp, count)] pairs. *)
let count_slice (s : Expirel_exec.Partial_agg.slice) =
  s.s_nonnull = 0
  && Int64.equal (Int64.bits_of_float s.s_fsum) 0L
  && List.for_all (( = ) Value.Null) [ s.s_sum; s.s_min; s.s_max ]

let put_groups b (groups : Expirel_exec.Partial_agg.t) =
  if List.for_all (fun g -> List.for_all count_slice g.Expirel_exec.Partial_agg.slices) groups
  then begin
    put_u8 b 2;
    put_list b
      (fun b (g : Expirel_exec.Partial_agg.group) ->
        put_list b put_value g.key;
        put_list b
          (fun b (s : Expirel_exec.Partial_agg.slice) ->
            put_time b s.s_texp;
            put_int b s.s_rows)
          g.slices)
      groups
  end
  else begin
    put_u8 b 1;
    put_list b put_group groups
  end

let put_held_groups b (h : held_groups) =
  put_int b h.version;
  put_bool b h.full

let put_body b = function
  | Body_rows { columns; rows; texp_e; recomputed } ->
    put_u8 b 1;
    put_list b put_str columns;
    put_list b put_row rows;
    put_time b texp_e;
    put_bool b recomputed
  | Body_ack message ->
    put_u8 b 2;
    put_str b message
  | Body_sketch { columns; payload } ->
    put_u8 b 3;
    put_list b put_str columns;
    put_str b payload
  | Body_agg { columns; child_texp; groups; held } ->
    put_u8 b 4;
    put_list b put_str columns;
    put_time b child_texp;
    put_groups b groups;
    put_option b put_held_groups held

let encode_request = function
  | Exec sql -> payload 1 (fun b -> put_str b sql)
  | Subscribe { name; query } ->
    payload 2 (fun b ->
        put_str b name;
        put_str b query)
  | Unsubscribe name -> payload 3 (fun b -> put_str b name)
  | Ping -> payload 5 ignore
  | Quit -> payload 6 ignore
  | Replicate { replica_id; position; ctx } ->
    payload 7 (fun b ->
        put_str b replica_id;
        put_int b position;
        put_option b put_ctx ctx)
  | Metrics -> payload 8 ignore
  | Slow_queries n -> payload 9 (fun b -> put_int b n)
  | Exec_traced { sql; ctx } ->
    payload 10 (fun b ->
        put_str b sql;
        put_ctx b ctx)
  | Trace_recent n -> payload 11 (fun b -> put_int b n)
  | Health -> payload 12 ignore
  | Shard_ping -> payload 16 ignore
  | Horizon table -> payload 23 (fun b -> put_option b put_str table)
  | Shard_exec { sql; ctx; want } ->
    payload 24 (fun b ->
        put_str b sql;
        put_option b put_ctx ctx;
        match want with
        | Want_rows -> put_u8 b 1
        | Want_sketch -> put_u8 b 2
        | Want_agg version ->
          put_u8 b 3;
          put_option b put_int version)
  | Statement { sql; ctx; held } ->
    payload 25 (fun b ->
        put_str b sql;
        put_option b put_ctx ctx;
        put_option b put_int held)
  | Move_rows { table; add; remove } ->
    payload 26 (fun b ->
        put_str b table;
        put_list b put_row add;
        put_list b (fun b values -> put_list b put_value values) remove)

let put_span b (s : Expirel_obs.Trace.span) =
  put_str b s.name;
  put_int b s.id;
  put_option b put_int s.parent;
  put_int b s.start_us;
  put_int b s.duration_us;
  put_list b
    (fun b (k, v) ->
      put_str b k;
      put_str b v)
    s.labels

let put_entry b (e : Expirel_obs.Trace_store.entry) =
  put_str b e.node;
  put_str b e.trace_id;
  put_str b e.name;
  put_f64 b e.started_at;
  put_int b e.total_us;
  put_list b put_span e.spans

let put_horizon_table b (tb : Expirel_obs.Horizon.table) =
  put_str b tb.name;
  put_list b put_int (Array.to_list tb.bounds);
  put_list b put_int (Array.to_list tb.counts)

let put_horizon b (r : Expirel_obs.Horizon.report) =
  put_int b r.now;
  put_int b r.window;
  put_int b r.fanout_events;
  put_f64 b r.arrival_rate;
  put_f64 b r.expiration_rate;
  put_list b put_horizon_table r.tables;
  put_list b (fun b (shard, rows) -> put_str b shard; put_int b rows) r.shards

let put_level b level =
  put_u8 b
    (match level with
     | Expirel_obs.Health.Ok -> 1
     | Degraded -> 2
     | Critical -> 3)

let put_firing b (f : Expirel_obs.Health.firing) =
  put_str b f.rule_name;
  put_f64 b f.value;
  put_level b f.level;
  put_str b f.help

let encode_response = function
  | Ok_msg m -> payload 1 (fun b -> put_str b m)
  | Rows { columns; rows; texp_e; recomputed } ->
    payload 2 (fun b ->
        put_list b put_str columns;
        put_list b put_row rows;
        put_time b texp_e;
        put_bool b recomputed)
  | Err { code; message } ->
    payload 3 (fun b ->
        put_u8 b (code_of_error code);
        put_str b message)
  | Event e -> payload 4 (fun b -> put_event b e)
  | Pong -> payload 6 ignore
  | Bye -> payload 7 ignore
  | Repl_snapshot { position; records } ->
    payload 8 (fun b ->
        put_int b position;
        put_list b Wal.put_record records)
  | Repl_records { from_position; records } ->
    payload 9 (fun b ->
        put_int b from_position;
        put_list b Wal.put_record records)
  | Repl_heartbeat { position; now } ->
    payload 10 (fun b ->
        put_int b position;
        put_time b now)
  | Metrics_reply text -> payload 11 (fun b -> put_str b text)
  | Traces_reply entries -> payload 13 (fun b -> put_list b put_entry entries)
  | Health_reply { level; firing } ->
    payload 14 (fun b ->
        put_level b level;
        put_list b put_firing firing)
  | Shard_pong { boot_id; now; partition } ->
    payload 18 (fun b ->
        put_str b boot_id;
        put_time b now;
        put_partition b partition)
  | Horizon_reply report -> payload 22 (fun b -> put_horizon b report)
  | Shard_reply { partition; body } ->
    payload 23 (fun b ->
        put_partition b partition;
        put_body b body)
  | Held_rows { version; body } ->
    payload 24 (fun b ->
        put_int b version;
        match body with
        | Held_whole { columns; rows; texp_e; recomputed } ->
          put_u8 b 1;
          put_list b put_str columns;
          put_list b put_row rows;
          put_time b texp_e;
          put_bool b recomputed
        | Held_delta { base; columns; upserts; removed; texp_e; recomputed } ->
          put_u8 b 2;
          put_int b base;
          put_list b put_str columns;
          put_list b put_row upserts;
          put_list b (fun b values -> put_list b put_value values) removed;
          put_time b texp_e;
          put_bool b recomputed)

(* ---------- reader ---------- *)

(* Decoders walk the payload with a {!Codec} cursor and abort through
   [Codec.Bad]; {!Codec.decode} turns it into [Error _], so no input
   can raise. *)

let get_row c =
  let values = get_list c get_value in
  let texp = get_time c in
  (values, texp)

let error_of_code = function
  | 1 -> Parse_error
  | 2 -> Exec_error
  | 3 -> Proto_error
  | 4 -> Timeout
  | 5 -> Overloaded
  | 6 -> Shutting_down
  | 7 -> Version_mismatch
  | 8 -> Shard_failed
  | n -> bad "bad error code %d" n

let get_event c =
  match get_u8 c with
  | 1 ->
    let subscription = get_str c in
    let row = get_list c get_value in
    let at = get_time c in
    Row_expired { subscription; row; at }
  | 2 ->
    let subscription = get_str c in
    let row = get_list c get_value in
    let texp = get_time c in
    let at = get_time c in
    Row_appeared { subscription; row; texp; at }
  | 3 ->
    let subscription = get_str c in
    let at = get_time c in
    Refreshed { subscription; at }
  | n -> bad "bad event tag %d" n

let payload_version data = if data = "" then None else Some (Char.code data.[0])

let decode_payload ~what ~by data =
  decode ~what
    (fun c ->
      let v = get_u8 c in
      if v <> version then bad "protocol version %d, expected %d" v version;
      by c (get_u8 c))
    data

let get_ctx c =
  let trace_id = get_str c in
  let parent_span = get_int c in
  { trace_id; parent_span }

let get_partition c =
  let live_rows = get_int c in
  let min_texp = get_time c in
  let max_texp = get_time c in
  { live_rows; min_texp; max_texp }

let get_slice c : Expirel_exec.Partial_agg.slice =
  let s_texp = get_time c in
  let s_rows = get_int c in
  let s_nonnull = get_int c in
  let s_sum = get_value c in
  let s_fsum = get_f64 c in
  let s_min = get_value c in
  let s_max = get_value c in
  { s_texp; s_rows; s_nonnull; s_sum; s_fsum; s_min; s_max }

let get_group c : Expirel_exec.Partial_agg.group =
  let key = get_list c get_value in
  let slices = get_list c get_slice in
  { key; slices }

let get_groups c : Expirel_exec.Partial_agg.t =
  match get_u8 c with
  | 1 -> get_list c get_group
  | 2 ->
    get_list c (fun c ->
        let key = get_list c get_value in
        let slices =
          get_list c (fun c ->
              let s_texp = get_time c in
              let s_rows = get_int c in
              { Expirel_exec.Partial_agg.s_texp;
                s_rows;
                s_nonnull = 0;
                s_sum = Value.Null;
                s_fsum = 0.;
                s_min = Value.Null;
                s_max = Value.Null
              })
        in
        { Expirel_exec.Partial_agg.key; slices })
  | n -> bad "bad group form %d" n

let get_held_groups c =
  let version = get_int c in
  let full = get_bool c in
  { version; full }

let get_body c =
  match get_u8 c with
  | 1 ->
    let columns = get_list c get_str in
    let rows = get_list c get_row in
    let texp_e = get_time c in
    let recomputed = get_bool c in
    Body_rows { columns; rows; texp_e; recomputed }
  | 2 -> Body_ack (get_str c)
  | 3 ->
    let columns = get_list c get_str in
    let payload = get_str c in
    Body_sketch { columns; payload }
  | 4 ->
    let columns = get_list c get_str in
    let child_texp = get_time c in
    let groups = get_groups c in
    let held = get_option c get_held_groups in
    Body_agg { columns; child_texp; groups; held }
  | n -> bad "bad shard body tag %d" n

let decode_request data =
  decode_payload ~what:"bad request" data ~by:(fun c -> function
    | 1 -> Exec (get_str c)
    | 2 ->
      let name = get_str c in
      let query = get_str c in
      Subscribe { name; query }
    | 3 -> Unsubscribe (get_str c)
    | 5 -> Ping
    | 6 -> Quit
    | 7 ->
      let replica_id = get_str c in
      let position = get_int c in
      let ctx = get_option c get_ctx in
      Replicate { replica_id; position; ctx }
    | 8 -> Metrics
    | 9 -> Slow_queries (get_int c)
    | 10 ->
      let sql = get_str c in
      let ctx = get_ctx c in
      Exec_traced { sql; ctx }
    | 11 -> Trace_recent (get_int c)
    | 12 -> Health
    | 16 -> Shard_ping
    | 23 -> Horizon (get_option c get_str)
    | 24 ->
      let sql = get_str c in
      let ctx = get_option c get_ctx in
      let want =
        match get_u8 c with
        | 1 -> Want_rows
        | 2 -> Want_sketch
        | 3 -> Want_agg (get_option c get_int)
        | n -> bad "bad want byte %d" n
      in
      Shard_exec { sql; ctx; want }
    | 25 ->
      let sql = get_str c in
      let ctx = get_option c get_ctx in
      let held = get_option c get_int in
      Statement { sql; ctx; held }
    | 26 ->
      let table = get_str c in
      let add = get_list c get_row in
      let remove = get_list c (fun c -> get_list c get_value) in
      Move_rows { table; add; remove }
    | n -> bad "unknown request tag %d" n)

let get_span c =
  let name = get_str c in
  let id = get_int c in
  let parent = get_option c get_int in
  let start_us = get_int c in
  let duration_us = get_int c in
  let labels =
    get_list c (fun c ->
        let k = get_str c in
        let v = get_str c in
        (k, v))
  in
  { Expirel_obs.Trace.id; parent; name; start_us; duration_us; labels }

let get_entry c =
  let node = get_str c in
  let trace_id = get_str c in
  let name = get_str c in
  let started_at = get_f64 c in
  let total_us = get_int c in
  let spans = get_list c get_span in
  { Expirel_obs.Trace_store.node; trace_id; name; started_at; total_us; spans }

let get_horizon_table c : Expirel_obs.Horizon.table =
  let name = get_str c in
  let bounds = Array.of_list (get_list c get_int) in
  let counts = Array.of_list (get_list c get_int) in
  if Array.length bounds <> Array.length counts then
    bad "horizon bucket arrays differ in length";
  { name; bounds; counts }

let get_horizon c : Expirel_obs.Horizon.report =
  let now = get_int c in
  let window = get_int c in
  let fanout_events = get_int c in
  let arrival_rate = get_f64 c in
  let expiration_rate = get_f64 c in
  let tables = get_list c get_horizon_table in
  let shards =
    get_list c (fun c ->
        let shard = get_str c in
        (shard, get_int c))
  in
  { now; window; fanout_events; arrival_rate; expiration_rate; tables; shards }

let get_level c =
  match get_u8 c with
  | 1 -> Expirel_obs.Health.Ok
  | 2 -> Degraded
  | 3 -> Critical
  | n -> bad "bad health level %d" n

let get_firing c =
  let rule_name = get_str c in
  let value = get_f64 c in
  let level = get_level c in
  let help = get_str c in
  { Expirel_obs.Health.rule_name; value; level; help }

let decode_response data =
  decode_payload ~what:"bad response" data ~by:(fun c -> function
    | 1 -> Ok_msg (get_str c)
    | 2 ->
      let columns = get_list c get_str in
      let rows = get_list c get_row in
      let texp_e = get_time c in
      let recomputed = get_bool c in
      Rows { columns; rows; texp_e; recomputed }
    | 3 ->
      let code = error_of_code (get_u8 c) in
      let message = get_str c in
      Err { code; message }
    | 4 -> Event (get_event c)
    | 6 -> Pong
    | 7 -> Bye
    | 8 ->
      let position = get_int c in
      let records = get_list c Wal.get_record in
      Repl_snapshot { position; records }
    | 9 ->
      let from_position = get_int c in
      let records = get_list c Wal.get_record in
      Repl_records { from_position; records }
    | 10 ->
      let position = get_int c in
      let now = get_time c in
      Repl_heartbeat { position; now }
    | 11 -> Metrics_reply (get_str c)
    | 13 -> Traces_reply (get_list c get_entry)
    | 14 ->
      let level = get_level c in
      let firing = get_list c get_firing in
      Health_reply { level; firing }
    | 18 ->
      let boot_id = get_str c in
      let now = get_time c in
      let partition = get_partition c in
      Shard_pong { boot_id; now; partition }
    | 22 -> Horizon_reply (get_horizon c)
    | 23 ->
      let partition = get_partition c in
      let body = get_body c in
      Shard_reply { partition; body }
    | 24 ->
      let version = get_int c in
      let body =
        match get_u8 c with
        | 1 ->
          let columns = get_list c get_str in
          let rows = get_list c get_row in
          let texp_e = get_time c in
          let recomputed = get_bool c in
          Held_whole { columns; rows; texp_e; recomputed }
        | 2 ->
          let base = get_int c in
          let columns = get_list c get_str in
          let upserts = get_list c get_row in
          let removed = get_list c (fun c -> get_list c get_value) in
          let texp_e = get_time c in
          let recomputed = get_bool c in
          Held_delta { base; columns; upserts; removed; texp_e; recomputed }
        | n -> bad "bad held body %d" n
      in
      Held_rows { version; body }
    | n -> bad "unknown response tag %d" n)

(* ---------- rendering ---------- *)

let error_code_label = function
  | Parse_error -> "parse error"
  | Exec_error -> "error"
  | Proto_error -> "protocol error"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting down"
  | Version_mismatch -> "version mismatch"
  | Shard_failed -> "shard failed"

let row_string values =
  "<" ^ String.concat ", " (List.map Value.to_string values) ^ ">"

let rec pp_response ppf = function
  | Ok_msg m -> Format.pp_print_string ppf m
  | Rows { columns; rows; texp_e; recomputed } ->
    Format.fprintf ppf "texp | %s" (String.concat ", " columns);
    List.iter
      (fun (values, texp) ->
        Format.fprintf ppf "@\n%4s | %s" (Time.to_string texp)
          (String.concat ", " (List.map Value.to_string values)))
      rows;
    Format.fprintf ppf "@\n(%d row(s), texp(e) = %s%s)" (List.length rows)
      (Time.to_string texp_e)
      (if recomputed then ", view recomputed" else "")
  | Err { code; message } ->
    Format.fprintf ppf "%s: %s" (error_code_label code) message
  | Event (Row_expired { subscription; row; at }) ->
    Format.fprintf ppf "[%s] row expired at %s: %s" subscription
      (Time.to_string at) (row_string row)
  | Event (Row_appeared { subscription; row; texp; at }) ->
    Format.fprintf ppf "[%s] row appeared at %s (texp %s): %s" subscription
      (Time.to_string at) (Time.to_string texp) (row_string row)
  | Event (Refreshed { subscription; at }) ->
    Format.fprintf ppf "[%s] refreshed at %s" subscription (Time.to_string at)
  | Pong -> Format.pp_print_string ppf "pong"
  | Bye -> Format.pp_print_string ppf "bye"
  | Repl_snapshot { position; records } ->
    Format.fprintf ppf "snapshot at position %d (%d record(s))" position
      (List.length records)
  | Repl_records { from_position; records } ->
    Format.fprintf ppf "records (%d, %d]" from_position
      (from_position + List.length records)
  | Repl_heartbeat { position; now } ->
    Format.fprintf ppf "heartbeat: position %d, now %s" position
      (Time.to_string now)
  | Metrics_reply text ->
    (* Prometheus text is already line-oriented; print as-is, without a
       trailing blank line. *)
    Format.pp_print_string ppf
      (if String.length text > 0 && text.[String.length text - 1] = '\n' then
         String.sub text 0 (String.length text - 1)
       else text)
  | Traces_reply entries ->
    Format.fprintf ppf "%d trace(s)" (List.length entries);
    List.iter
      (fun (e : Expirel_obs.Trace_store.entry) ->
        Format.fprintf ppf "@\n%s %s %8dus  %s" e.trace_id e.node e.total_us
          e.name;
        List.iter
          (fun (s : Expirel_obs.Trace.span) ->
            Format.fprintf ppf "@\n  #%d%s %s +%dus for %dus%s" s.id
              (match s.parent with
               | Some p -> Printf.sprintf " (in #%d)" p
               | None -> "")
              s.name s.start_us s.duration_us
              (match s.labels with
               | [] -> ""
               | ls ->
                 " ["
                 ^ String.concat ", "
                     (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
                 ^ "]"))
          e.spans)
      entries
  | Health_reply { level; firing } ->
    let level_string = Expirel_obs.Health.level_to_string in
    Format.fprintf ppf "health: %s" (level_string level);
    List.iter
      (fun (f : Expirel_obs.Health.firing) ->
        Format.fprintf ppf "@\n  [%s] %s = %g — %s" (level_string f.level)
          f.rule_name f.value f.help)
      firing
  | Shard_pong { boot_id; now; partition } ->
    Format.fprintf ppf "shard booted %s: now %s, %d live row(s), texp in [%s, %s]"
      boot_id (Time.to_string now) partition.live_rows
      (Time.to_string partition.min_texp)
      (Time.to_string partition.max_texp)
  | Horizon_reply report ->
    Format.pp_print_string ppf (Expirel_obs.Horizon.render report)
  | Held_rows { version; body = Held_whole { columns; rows; texp_e; recomputed } }
    ->
    pp_response ppf (Rows { columns; rows; texp_e; recomputed });
    Format.fprintf ppf "@\n[held as version %d]" version
  | Held_rows
      { version; body = Held_delta { base; upserts; removed; texp_e; _ } } ->
    Format.fprintf ppf
      "version %d: %d row(s) upserted, %d removed since version %d, \
       texp(e) = %s"
      version (List.length upserts) (List.length removed) base
      (Time.to_string texp_e)
  | Shard_reply { partition; body } ->
    (match body with
     | Body_rows { columns; rows; texp_e; recomputed } ->
       pp_response ppf (Rows { columns; rows; texp_e; recomputed })
     | Body_ack message -> Format.pp_print_string ppf message
     | Body_sketch { columns; payload } ->
       Format.fprintf ppf "sketch partial (%d byte(s), columns %s)"
         (String.length payload)
         (String.concat ", " columns)
     | Body_agg { columns; child_texp; groups; held = _ } ->
       Format.fprintf ppf
         "aggregate partial (%d group(s), columns %s, child texp(e) = %s)"
         (List.length groups)
         (String.concat ", " columns)
         (Time.to_string child_texp));
    Format.fprintf ppf "@\n[partition: %d live row(s), texp in [%s, %s]]"
      partition.live_rows
      (Time.to_string partition.min_texp)
      (Time.to_string partition.max_texp)

let render_response r = Format.asprintf "%a" pp_response r

let parsing parse text k =
  match parse text with
  | statement -> k statement
  | exception Expirel_sqlx.Parser.Error (message, offset) ->
    Err
      { code = Parse_error;
        message = Printf.sprintf "at offset %d: %s" offset message
      }

(* ---------- held answers ---------- *)

(* Below 64 rows a whole reply is a few hundred bytes, and diffing and
   patching would save less than it costs. *)
let held_min_rows = 64

(* What a connection pins on either side, in rows (a held row costs
   about 73 bytes of heap): far above one GROUP BY over 10^3 users, and
   enough for a coordinator's two dozen kept texts of 10^3 groups per
   shard.  Each held answer is kept alive until replaced, evicted or
   the connection closes. *)
let held_budget = 1 lsl 15

(* [Tuple.compare] on value lists: arity first, then value by value. *)
let compare_row a b =
  let rec values a b =
    match (a, b) with
    | x :: a', y :: b' ->
      let c = Value.compare x y in
      if c <> 0 then c else values a' b'
    | _ -> 0
  in
  match List.compare_lengths a b with
  | 0 -> values a b
  | c -> c

(* One pass over the copy: rows before the next edit are moved across
   untouched, and the tail after the last edit is shared.  The edits
   must come in strictly increasing tuple order, and a removal must name
   a row the copy holds; anything else is an error, never a patched
   answer. *)
let patch rows ~upserts ~removed =
  let exception Bad of string in
  let rec skip acc rows key =
    match rows with
    | ((values, _) as row) :: rest when compare_row values key < 0 ->
      skip (row :: acc) rest key
    | _ -> (acc, rows)
  in
  let drop_equal rows key =
    match rows with
    | (values, _) :: rest when compare_row values key = 0 -> Some rest
    | _ -> None
  in
  let rec go last acc rows upserts removed =
    let next key =
      match last with
      | Some prev when compare_row prev key >= 0 ->
        raise (Bad "delta edits out of tuple order")
      | _ -> skip acc rows key
    in
    let upsert ((key, _) as row) upserts' =
      let acc, rows = next key in
      let rows = Option.value ~default:rows (drop_equal rows key) in
      go (Some key) (row :: acc) rows upserts' removed
    in
    let remove key removed' =
      let acc, rows = next key in
      match drop_equal rows key with
      | Some rows -> go (Some key) acc rows upserts removed'
      | None -> raise (Bad "delta removes a row the copy does not hold")
    in
    match (upserts, removed) with
    | [], [] -> List.rev_append acc rows
    | [], key :: removed' -> remove key removed'
    | row :: upserts', [] -> upsert row upserts'
    | ((key, _) as row) :: upserts', gone :: removed' ->
      if compare_row key gone < 0 then upsert row upserts'
      else remove gone removed'
  in
  match go None [] rows upserts removed with
  | patched -> Ok patched
  | exception Bad message -> Error message
