open Expirel_core
open Expirel_storage

let default_port = 7717

(* The copy of an answer the server sent as [version], in tuple order. *)
type held = {
  version : int;
  rows : (Value.t list * Time.t) list;
}

type t = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  timeout : float;
  pending : Wire.event Queue.t;
  mutable closed : bool;
  held : (string, held) Expirel_exec.Lru.t;
}

(* A dotted address resolves to itself, without a lookup. *)
let resolve host =
  if host = "localhost" then Unix.inet_addr_loopback
  else
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
    | _ -> failwith (Printf.sprintf "cannot resolve host %S" host)

let dial ?(timeout = 10.0) ~host ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (resolve host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?(timeout = 10.0) ~host ~port () =
  let fd = dial ~timeout ~host ~port () in
  { fd;
    reader = Frame.reader fd;
    timeout;
    pending = Queue.create ();
    closed = false;
    held =
      Expirel_exec.Lru.create
        ~weigh:(fun h -> List.length h.rows)
        ~capacity:Wire.held_budget ()
  }

let timeout t = t.timeout

let fail_closed = Error "connection closed"

(* Gives the connection up.  Any failure, a receive timeout included,
   can leave a reply missed or half read, and a late frame would then
   answer the wrong request. *)
let shut t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Blocks for the next frame, answered with its size on the wire.
   Every failure, an unexpected socket error included, is an [Error]
   that gives the connection up. *)
let recv t =
  let fail e =
    shut t;
    Error e
  in
  match Frame.recv t.reader with
  | exception Frame.Closed -> fail "connection closed"
  | exception Frame.Timeout -> fail "receive timeout"
  | exception Frame.Oversized n ->
    fail (Printf.sprintf "oversized frame (%d bytes): stream desynchronised" n)
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  | payload, bytes ->
    (match Wire.decode_response payload with
     | Error e -> fail e
     | Ok response -> Ok (response, bytes))

(* Queues events until a direct response arrives. *)
let rec collect t =
  if t.closed then fail_closed
  else
    match recv t with
    | Ok (Wire.Event event, _) ->
      Queue.add event t.pending;
      collect t
    | reply -> reply

let post t req =
  if t.closed then fail_closed
  else
    match Frame.send t.fd (Wire.encode_request req) with
    | sent -> Ok sent
    | exception (Frame.Closed | Frame.Timeout) ->
      shut t;
      fail_closed
    | exception Unix.Unix_error (e, _, _) ->
      shut t;
      Error (Unix.error_message e)

(* A closed connection, one whose reader already holds bytes, or a
   [select] that fails (a descriptor closed under it, or one past
   FD_SETSIZE), counts as ready: [collect] then answers each at once or
   reads it under its own timeout. *)
let rec ready ts ~timeout =
  match List.filter (fun t -> t.closed || Frame.buffered t.reader) ts with
  | _ :: _ as now -> now
  | [] ->
    match Unix.select (List.map (fun t -> t.fd) ts) [] [] (Float.max 0. timeout) with
    | readable, _, _ -> List.filter (fun t -> List.mem t.fd readable) ts
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready ts ~timeout
    | exception Unix.Unix_error _ -> ts

let exchange t req =
  Result.bind (post t req) (fun sent ->
      Result.map (fun (response, received) -> (response, sent, received)) (collect t))

let request t req = Result.map (fun (response, _, _) -> response) (exchange t req)

(* Every statement goes out as [Statement], naming the version of the
   copy held for its text.  A held reply becomes the new copy: the
   whole answer, or the old copy patched by the delta.  A delta whose
   base is not the copy held gives the connection up, like any reply
   out of protocol.  A plain [Rows] means the server holds nothing for
   the text any more, so neither does the client.  Under a trace, the
   server's spans record under [trace]'s id, nested below its current
   span — the client half of cross-node trace propagation. *)
let exec_traced t ?trace sql =
  let copy = Expirel_exec.Lru.find t.held sql in
  let statement =
    Wire.Statement
      { sql;
        ctx = Option.map Wire.ctx_of_trace trace;
        held = Option.map (fun h -> h.version) copy
      }
  in
  match request t statement with
  | Ok (Wire.Held_rows { version; body }) ->
    let patched =
      match (body, copy) with
      | Wire.Held_whole { columns; rows; texp_e; recomputed }, _ ->
        Ok (columns, rows, texp_e, recomputed)
      | Wire.Held_delta { base; columns; upserts; removed; texp_e; recomputed },
        Some h
        when h.version = base ->
        Result.map
          (fun rows -> (columns, rows, texp_e, recomputed))
          (Wire.patch h.rows ~upserts ~removed)
      | Wire.Held_delta { base; _ }, _ ->
        Error (Printf.sprintf "a delta against version %d, which is not held" base)
    in
    (match patched with
     | Ok (columns, rows, texp_e, recomputed) ->
       Expirel_exec.Lru.set t.held sql { version; rows };
       Ok (Wire.Rows { columns; rows; texp_e; recomputed })
     | Error e ->
       shut t;
       Error ("protocol error: " ^ e))
  | Ok (Wire.Rows _) as reply ->
    Expirel_exec.Lru.remove t.held sql;
    reply
  | reply -> reply

let exec t sql = exec_traced t sql

let exec_ok t sql =
  match exec t sql with
  | Ok (Wire.Err { message; _ }) -> Error message
  | Ok _ -> Ok ()
  | Error _ as e -> e

(* One request whose reply [pick] accepts: an [Err] answers its
   message, any other reply is out of protocol for [what]. *)
let call t req what pick =
  match request t req with
  | Ok (Wire.Err { message; _ }) -> Error message
  | Ok reply ->
    (match pick reply with
     | Some v -> Ok v
     | None -> Error ("unexpected response to " ^ what))
  | Error e -> Error e

let subscribe t ~name ~query =
  call t (Wire.Subscribe { name; query }) "SUBSCRIBE" (function
    | Wire.Ok_msg _ -> Some ()
    | _ -> None)

let unsubscribe t name =
  call t (Wire.Unsubscribe name) "UNSUBSCRIBE" (function
    | Wire.Ok_msg _ -> Some ()
    | _ -> None)

let metrics t =
  call t Wire.Metrics "METRICS" (function
    | Wire.Metrics_reply text -> Some text
    | _ -> None)

let traces_of = function Wire.Traces_reply es -> Some es | _ -> None
let slow_queries t n = call t (Wire.Slow_queries n) "SLOW" traces_of
let traces t n = call t (Wire.Trace_recent n) "TRACE" traces_of

let horizon ?table t =
  call t (Wire.Horizon table) "HORIZON" (function
    | Wire.Horizon_reply report -> Some report
    | _ -> None)

let health t =
  call t Wire.Health "HEALTH" (function
    | Wire.Health_reply report -> Some report
    | _ -> None)

let ping t =
  call t Wire.Ping "PING" (function Wire.Pong -> Some () | _ -> None)

let events t =
  let drained = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  drained

let poll_events t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining > 0. && not t.closed then
      match
        if Frame.buffered t.reader then ([ t.fd ], [], [])
        else Unix.select [ t.fd ] [] [] remaining
      with
      | [], _, _ -> ()
      | _ :: _, _, _ ->
        (match recv t with
         | Ok (Wire.Event event, _) ->
           Queue.add event t.pending;
           go ()
         | Ok _ ->
           (* Unsolicited non-event frame: the stream is out of
              protocol; stop reading. *)
           shut t
         | Error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> shut t
  in
  go ();
  events t

let close t =
  if not t.closed then begin
    (try ignore (Frame.send t.fd (Wire.encode_request Wire.Quit))
     with Frame.Closed | Frame.Timeout | Unix.Unix_error _ -> ());
    shut t
  end
