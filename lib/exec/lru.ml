(* The entries form a circular doubly linked list in recency order:
   from the most recently used, [older] links lead through ever older
   entries to the least recently used, whose [older] is the most
   recent again (so the most recent's [newer] is the least recent). *)
type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable weight : int;
  mutable older : ('k, 'v) node;
  mutable newer : ('k, 'v) node;
}

type ('k, 'v) t = {
  capacity : int;
  weigh : 'v -> int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable mru : ('k, 'v) node option;  (* None when empty *)
  mutable total : int;  (* the entries' weights *)
  on_evict : 'k -> unit;
}

let create ?(on_evict = ignore) ?(weigh = fun _ -> 1) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1"
  else
    { capacity;
      weigh;
      table = Hashtbl.create (min capacity 64);
      mru = None;
      total = 0;
      on_evict
    }

let length t = Hashtbl.length t.table

let unlink t n =
  t.total <- t.total - n.weight;
  if n.older == n then t.mru <- None
  else begin
    n.older.newer <- n.newer;
    n.newer.older <- n.older;
    match t.mru with Some m when m == n -> t.mru <- Some n.older | _ -> ()
  end

let push_front t n =
  t.total <- t.total + n.weight;
  (match t.mru with
   | None ->
     n.older <- n;
     n.newer <- n
   | Some m ->
     let lru = m.newer in
     n.older <- m;
     n.newer <- lru;
     m.newer <- n;
     lru.older <- n);
  t.mru <- Some n

let touch t n =
  match t.mru with
  | Some m when m == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
    touch t n;
    Some n.value

let evict_lru t =
  match t.mru with
  | Some m ->
    let lru = m.newer in
    Hashtbl.remove t.table lru.key;
    unlink t lru;
    t.on_evict lru.key
  | None -> ()

let set t key value =
  let weight = t.weigh value in
  (match Hashtbl.find_opt t.table key with
   | Some n ->
     unlink t n;
     n.value <- value;
     n.weight <- weight;
     push_front t n
   | None ->
     let rec n = { key; value; weight; older = n; newer = n } in
     Hashtbl.add t.table key n;
     push_front t n);
  while t.total > t.capacity do
    evict_lru t
  done

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    Hashtbl.remove t.table key;
    unlink t n
  | None -> ()

let fold f t acc = Hashtbl.fold (fun key n acc -> f key n.value acc) t.table acc
