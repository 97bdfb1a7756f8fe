type ('k, 'v) entry = {
  value : 'v;
  mutable used : int;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable tick : int;
  on_evict : 'k -> unit;
}

let create ?(on_evict = ignore) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1"
  else { capacity; table = Hashtbl.create capacity; tick = 0; on_evict }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let touch t entry =
  t.tick <- t.tick + 1;
  entry.used <- t.tick

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some entry ->
    touch t entry;
    Some entry.value

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best <= entry.used -> acc
        | _ -> Some (key, entry.used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.on_evict key
  | None -> ()

let set t key value =
  (match Hashtbl.find_opt t.table key with
   | Some _ -> Hashtbl.remove t.table key
   | None -> if Hashtbl.length t.table >= t.capacity then evict_lru t);
  let entry = { value; used = 0 } in
  touch t entry;
  Hashtbl.replace t.table key entry

let remove t key = Hashtbl.remove t.table key
