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

let close m =
  match m.conn with
  | Some c ->
    (try Client.close c with _ -> ());
    m.conn <- None
  | None -> ()
