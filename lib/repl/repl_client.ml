type endpoint = Member.endpoint = {
  host : string;
  port : int;
}

type t = {
  primary : Member.t;
  replicas : Member.t array;
  mutable next_replica : int;
}

let create ?backoff ~primary ~replicas () =
  { primary = Member.create ?backoff primary;
    replicas = Array.of_list (List.map (Member.create ?backoff) replicas);
    next_replica = 0
  }

let exec ?trace t sql =
  Member.on t.primary (fun c ->
      Member.traced_exec ?trace c ~span_name:"rpc:primary" sql)

let query ?trace t sql =
  let n = Array.length t.replicas in
  let rec try_from i tried =
    if tried >= n then
      Member.on t.primary (fun c ->
          Member.traced_exec ?trace c ~span_name:"rpc:primary" sql)
    else begin
      let m = t.replicas.(i mod n) in
      match
        Member.on m (fun c ->
            Member.traced_exec ?trace c
              ~span_name:(Printf.sprintf "rpc:replica-%d" (i mod n))
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
