open Expirel_repl

type endpoint = Member.endpoint = {
  host : string;
  port : int;
}

type t = {
  primary : Member.t;
  replicas : Member.t array;
  replica_spans : Expirel_obs.Trace.name array;  (* rpc:replica-<i> *)
  mutable next_replica : int;
}

let primary_span = Expirel_obs.Trace.name "rpc:primary"

let create ?backoff ~primary ~replicas () =
  let replicas = Array.of_list (List.map (Member.create ?backoff) replicas) in
  { primary = Member.create ?backoff primary;
    replicas;
    replica_spans =
      Array.init (Array.length replicas) (fun i ->
          Expirel_obs.Trace.name (Printf.sprintf "rpc:replica-%d" i));
    next_replica = 0
  }

(* [sql] on the member's connection, under a local span named
   [span_name] that ships the trace context: the serving node's spans
   record under the same trace id.  A failed request drops the
   connection, so the next one redials; an endpoint in backoff answers
   at once. *)
let traced_exec ?trace m ~span_name sql =
  match Member.connection m with
  | None -> Error "endpoint unavailable"
  | Some c ->
    (match
       Expirel_obs.Trace.span trace span_name (fun () ->
           Expirel_server.Client.exec_traced c ?trace sql)
     with
     | Ok _ as ok -> ok
     | Error _ as e ->
       Member.drop m;
       e)

let exec ?trace t sql = traced_exec ?trace t.primary ~span_name:primary_span sql

let query ?trace t sql =
  let n = Array.length t.replicas in
  let rec try_from i tried =
    if tried >= n then exec ?trace t sql
    else begin
      match
        traced_exec ?trace t.replicas.(i mod n) ~span_name:t.replica_spans.(i mod n) sql
      with
      | Ok _ as ok ->
        t.next_replica <- (i + 1) mod n;
        ok
      | Error _ -> try_from (i + 1) (tried + 1)
    end
  in
  if n = 0 then exec ?trace t sql else try_from t.next_replica 0

let close t =
  Member.close t.primary;
  Array.iter Member.close t.replicas
