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

let exec ?trace t sql =
  Member.on t.primary (fun c ->
      Member.traced_exec ?trace c ~span_name:primary_span sql)

let query ?trace t sql =
  let n = Array.length t.replicas in
  let rec try_from i tried =
    if tried >= n then
      Member.on t.primary (fun c ->
          Member.traced_exec ?trace c ~span_name:primary_span sql)
    else begin
      let m = t.replicas.(i mod n) in
      match
        Member.on m (fun c ->
            Member.traced_exec ?trace c
              ~span_name:t.replica_spans.(i mod n)
              sql)
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
