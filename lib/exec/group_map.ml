open Expirel_core

type key = Value.t list

(* [List.compare Value.compare], with an [Int] pair compared in line. *)
let rec compare_keys a b =
  match a, b with
  | Value.Int x :: a', Value.Int y :: b' ->
    if x < y then -1 else if x > y then 1 else compare_keys a' b'
  | x :: a', y :: b' ->
    let c = Value.compare x y in
    if c <> 0 then c else compare_keys a' b'
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1

type 'a t =
  | Leaf
  | Node of {
      l : 'a t;
      k : key;
      v : 'a;
      r : 'a t;
      h : int;  (* height *)
      s : int;  (* bindings in the subtree *)
    }

let empty = Leaf

let height = function
  | Leaf -> 0
  | Node n -> n.h

let cardinal = function
  | Leaf -> 0
  | Node n -> n.s

let node l k v r =
  let hl = height l and hr = height r in
  Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1); s = cardinal l + cardinal r + 1 }

(* [node l k v r] rebalanced, for [l] and [r] whose heights differ by at
   most 3. *)
let balance l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } ->
      if height ll >= height lr then node ll lk lv (node lr k v r)
      else (
        match lr with
        | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
          node (node ll lk lv lrl) lrk lrv (node lrr k v r)
        | Leaf -> assert false)
    | Leaf -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } ->
      if height rr >= height rl then node (node l k v rl) rk rv rr
      else (
        match rl with
        | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
          node (node l k v rll) rlk rlv (node rlr rk rv rr)
        | Leaf -> assert false)
    | Leaf -> assert false
  else node l k v r

let rec find_opt key = function
  | Leaf -> None
  | Node { l; k; v; r; _ } ->
    let c = compare_keys key k in
    if c = 0 then Some v else find_opt key (if c < 0 then l else r)

let rec add key data = function
  | Leaf -> Node { l = Leaf; k = key; v = data; r = Leaf; h = 1; s = 1 }
  | Node { l; k; v; r; h; s } as m ->
    let c = compare_keys key k in
    if c = 0 then if v == data then m else Node { l; k = key; v = data; r; h; s }
    else if c < 0 then
      let l' = add key data l in
      if l' == l then m else balance l' k v r
    else
      let r' = add key data r in
      if r' == r then m else balance l k v r'

let rec min_node = function
  | Node { l = Leaf; _ } as n -> n
  | Node { l; _ } -> min_node l
  | Leaf -> assert false

let rec remove_min = function
  | Node { l = Leaf; r; _ } -> r
  | Node { l; k; v; r; _ } -> balance (remove_min l) k v r
  | Leaf -> assert false

(* [l] then [r], balanced against each other as a removed node's
   subtrees are. *)
let glue l r =
  match l, r with
  | Leaf, m | m, Leaf -> m
  | _ -> (
    match min_node r with
    | Node { k; v; _ } -> balance l k v (remove_min r)
    | Leaf -> assert false)

let rec remove key = function
  | Leaf -> Leaf
  | Node { l; k; v; r; _ } as m ->
    let c = compare_keys key k in
    if c = 0 then glue l r
    else if c < 0 then
      let l' = remove key l in
      if l' == l then m else balance l' k v r
    else
      let r' = remove key r in
      if r' == r then m else balance l k v r'

let of_ascending bindings =
  let a = Array.of_list bindings in
  Array.iteri
    (fun i (k, _) ->
      if i > 0 && compare_keys (fst a.(i - 1)) k >= 0 then
        invalid_arg "Group_map.of_ascending: keys do not ascend")
    a;
  let rec build lo hi =
    if lo >= hi then Leaf
    else
      let mid = (lo + hi) / 2 in
      let k, v = a.(mid) in
      node (build lo mid) k v (build (mid + 1) hi)
  in
  build 0 (Array.length a)

let rec fold f m acc =
  match m with
  | Leaf -> acc
  | Node { l; k; v; r; _ } -> fold f r (f k v (fold f l acc))

(* Both maps as cursors in key order: a subtree still to visit, or a
   binding.  [diff] opens the higher of two unshared subtrees (both when
   their heights tie), so a path copy meets its original's subtrees at
   the same positions and skips each one whole. *)
type 'a cursor =
  | End
  | Sub of 'a t * 'a cursor
  | Binding of key * 'a * 'a cursor

let push m rest = if m == Leaf then rest else Sub (m, rest)

let open_ m rest =
  match m with
  | Node { l; k; v; r; _ } -> push l (Binding (k, v, push r rest))
  | Leaf -> rest

let diff before after =
  let rec go a b acc =
    match a, b with
    | End, End -> List.rev acc
    | Sub (ma, a'), Sub (mb, b') when ma == mb -> go a' b' acc
    | Sub (ma, a'), Sub (mb, b') ->
      let ha = height ma and hb = height mb in
      go (if ha >= hb then open_ ma a' else a) (if hb >= ha then open_ mb b' else b) acc
    | Sub (ma, a'), _ -> go (open_ ma a') b acc
    | _, Sub (mb, b') -> go a (open_ mb b') acc
    | Binding (ka, va, a'), Binding (kb, vb, b') ->
      let c = if ka == kb then 0 else compare_keys ka kb in
      if c < 0 then go a' b ((ka, None) :: acc)
      else if c > 0 then go a b' ((kb, Some vb) :: acc)
      else go a' b' (if va == vb then acc else (kb, Some vb) :: acc)
    | Binding (ka, _, a'), End -> go a' End ((ka, None) :: acc)
    | End, Binding (kb, vb, b') -> go End b' ((kb, Some vb) :: acc)
  in
  if before == after then [] else go (push before End) (push after End) []

let patch m changes =
  if List.compare_length_with changes (cardinal m / max 1 (height m)) < 0 then
    List.fold_left
      (fun m (key, v) ->
        match v with
        | Some v -> add key v m
        | None -> remove key m)
      m changes
  else
    (* [m]'s bindings, ascending, with [changes] merged in *)
    let rec merge bindings changes =
      match bindings, changes with
      | rest, [] -> rest
      | [], (k, Some v) :: changes' -> (k, v) :: merge [] changes'
      | [], (_, None) :: changes' -> merge [] changes'
      | ((kb, _) as b) :: bindings', (kc, vc) :: changes' ->
        let c = compare_keys kb kc in
        if c < 0 then b :: merge bindings' changes
        else
          let bindings = if c = 0 then bindings' else bindings in
          match vc with
          | Some v -> (kc, v) :: merge bindings changes'
          | None -> merge bindings changes'
    in
    of_ascending (merge (fold (fun k v acc -> (k, v) :: acc) m [] |> List.rev) changes)

let well_formed m =
  (* The subtree's size, or -1 when an invariant fails within it; keys
     lie strictly between [lo] and [hi]. *)
  let rec check lo hi = function
    | Leaf -> 0
    | Node { l; k; r; h; s; _ } ->
      let within =
        Option.fold lo ~none:true ~some:(fun lo -> compare_keys lo k < 0)
        && Option.fold hi ~none:true ~some:(fun hi -> compare_keys k hi < 0)
      in
      let sl = check lo (Some k) l and sr = check (Some k) hi r in
      let hl = height l and hr = height r in
      if within && sl >= 0 && sr >= 0 && h = 1 + max hl hr && abs (hl - hr) <= 2
         && s = sl + sr + 1
      then s
      else -1
  in
  check None None m = cardinal m
