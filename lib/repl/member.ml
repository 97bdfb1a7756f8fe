open Expirel_server

type endpoint = {
  host : string;
  port : int;
}

let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 ->
    Option.map
      (fun port -> { host = String.sub s 0 i; port })
      (int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)))
  | Some _ | None -> None

type t = {
  endpoint : endpoint;
  backoff : Backoff.t;
  mutable conn : Client.t option;
  mutable retry_at : float;  (* no dialing before this *)
}

let create ?(backoff = fun () -> Backoff.create ()) endpoint =
  { endpoint; backoff = backoff (); conn = None; retry_at = 0.0 }

let endpoint m = m.endpoint

let drop m =
  (match m.conn with
   | Some c -> (try Client.close c with _ -> ())
   | None -> ());
  m.conn <- None;
  m.retry_at <- Unix.gettimeofday () +. Backoff.next m.backoff

let would_dial m = Option.is_none m.conn && Unix.gettimeofday () >= m.retry_at

(* An established connection, dialing if allowed; None while the
   endpoint is in backoff, refusing, or its host does not resolve. *)
let connection m =
  match m.conn with
  | Some c -> Some c
  | None ->
    if Unix.gettimeofday () < m.retry_at then None
    else begin
      match
        Client.connect ~host:m.endpoint.host ~port:m.endpoint.port ()
      with
      | c ->
        m.conn <- Some c;
        Backoff.reset m.backoff;
        m.retry_at <- 0.0;
        Some c
      | exception (Unix.Unix_error _ | Failure _) ->
        m.retry_at <- Unix.gettimeofday () +. Backoff.next m.backoff;
        None
    end

let on m f =
  match connection m with
  | None -> Error "endpoint unavailable"
  | Some c ->
    (match f c with
     | Ok _ as ok -> ok
     | Error _ as e ->
       (* Connection-level failure: the next call redials. *)
       drop m;
       e)

(* With [?trace], each remote call is wrapped in a local span and
   ships the trace context: the serving node's spans record under the
   same trace id, so merging this node's trace with the servers'
   recent traces yields one cross-node timeline. *)
let traced_exec ?trace c ~span_name sql =
  Expirel_obs.Trace.span trace span_name (fun () ->
      Client.exec_traced c ?trace sql)

let close m =
  match m.conn with
  | Some c ->
    (try Client.close c with _ -> ());
    m.conn <- None
  | None -> ()
