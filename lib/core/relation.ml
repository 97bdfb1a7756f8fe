(* An AVL tree ordered by [Tuple.compare], balanced like the standard
   library's [Map] (sibling heights differ by at most 2), with nodes as
   lean as [Map]'s: next to its height each node packs its subtree's
   minimum texp, so [exp] and [fold_expired] descend only where that
   minimum is due, and [diff] skips subtrees two relations share by
   pointer.  The row count lives beside the root, so [cardinal] is
   O(1). *)
type tree =
  | Leaf
  | Node of {
      l : tree;
      t : Tuple.t;
      e : Time.t;
      r : tree;
      lh : int;  (* the subtree's minimum texp as [code], [lsl 6], [lor] its height *)
    }

type t = {
  arity : int;
  tree : tree;
  size : int;
}

(* A texp as an int ordered like [Time.compare], clamped to the 57 bits
   [lh] has room for (so [Inf] and the finite times beyond the range
   share its ends): [code a > code b] implies [Time.(a > b)], which is
   all pruning needs, and a minimum strictly inside the range is
   exact. *)
let top_code = max_int asr 6
let bottom_code = min_int asr 6

let code = function
  | Time.Inf -> top_code
  | Time.Fin n -> if n >= top_code then top_code else if n <= bottom_code then bottom_code else n

let lh = function
  | Leaf -> (top_code lsl 6) lor 0
  | Node n -> n.lh

let height t = lh t land 63
let low t = lh t asr 6
let imin (a : int) b = if a <= b then a else b

(* [Time.(a > b)] without the cross-module call. *)
let after a b =
  match a, b with
  | Time.Inf, Time.Fin _ -> true
  | Time.Fin x, Time.Fin y -> x > y
  | _, Time.Inf -> false

(* [lh] of a node of texp code [c] over subtrees of [lh] [a] and [b]. *)
let join_lh c a b =
  let ha = a land 63 and hb = b land 63 in
  (imin c (imin (a asr 6) (b asr 6)) lsl 6) lor (if ha >= hb then ha + 1 else hb + 1)

let node l t e r = Node { l; t; e; r; lh = join_lh (code e) (lh l) (lh r) }

(* [node l t e r] rebalanced, for [l] and [r] whose heights differ by at
   most 3. *)
let balance l t e r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; t = lt; e = le; r = lr; _ } ->
      if height ll >= height lr then node ll lt le (node lr t e r)
      else (
        match lr with
        | Node { l = lrl; t = lrt; e = lre; r = lrr; _ } ->
          node (node ll lt le lrl) lrt lre (node lrr t e r)
        | Leaf -> assert false)
    | Leaf -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; t = rt; e = re; r = rr; _ } ->
      if height rr >= height rl then node (node l t e rl) rt re rr
      else (
        match rl with
        | Node { l = rll; t = rlt; e = rle; r = rlr; _ } ->
          node (node l t e rll) rlt rle (node rlr rt re rr)
        | Leaf -> assert false)
    | Leaf -> assert false
  else node l t e r

let rec add_min_row t e = function
  | Leaf -> node Leaf t e Leaf
  | Node { l; t = t'; e = e'; r; _ } -> balance (add_min_row t e l) t' e' r

let rec add_max_row t e = function
  | Leaf -> node Leaf t e Leaf
  | Node { l; t = t'; e = e'; r; _ } -> balance l t' e' (add_max_row t e r)

(* [l], the row, then [r], for every tuple of [l] below [t] and every
   tuple of [r] above it, whatever their heights. *)
let rec link l t e r =
  match l, r with
  | Leaf, _ -> add_min_row t e r
  | _, Leaf -> add_max_row t e l
  | Node nl, Node nr ->
    let hl = nl.lh land 63 and hr = nr.lh land 63 in
    if hl > hr + 2 then balance nl.l nl.t nl.e (link nl.r t e r)
    else if hr > hl + 2 then balance (link l t e nr.l) nr.t nr.e nr.r
    else node l t e r

let rec min_node = function
  | Node { l = Leaf; _ } as n -> n
  | Node { l; _ } -> min_node l
  | Leaf -> assert false

let rec remove_min = function
  | Node { l = Leaf; r; _ } -> r
  | Node { l; t; e; r; _ } -> balance (remove_min l) t e r
  | Leaf -> assert false

(* [l] then [r], whatever their heights ([glue] when balanced against
   each other, as a removed node's subtrees are). *)
let concat join l r =
  match l, r with
  | Leaf, s | s, Leaf -> s
  | _ -> (
    match min_node r with
    | Node { t; e; _ } -> join l t e (remove_min r)
    | Leaf -> assert false)

let glue l r = concat balance l r
let merge l r = concat link l r

let empty ~arity =
  if arity < 0 then invalid_arg "Relation.empty: negative arity"
  else { arity; tree = Leaf; size = 0 }

let arity r = r.arity
let cardinal r = r.size
let is_empty r = r.tree == Leaf

let check_arity r t =
  if Tuple.arity t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation: tuple arity %d, relation arity %d"
         (Tuple.arity t) r.arity)

(* [t] at [merge old e] when present, at [e] (of code [c]) otherwise,
   setting [grew] when [t] is new; a merge that keeps the old texp
   answers the tree itself.  A node above a new row, still balanced, is
   rebuilt from its old minimum without reading its own texp. *)
let rec upsert merge grew t e c = function
  | Leaf ->
    grew := true;
    Node { l = Leaf; t; e; r = Leaf; lh = (c lsl 6) lor 1 }
  | Node ({ l; t = t'; e = e'; r; lh = m } as nd) as tree ->
    let cmp = Tuple.compare t t' in
    if cmp = 0 then
      let e'' = merge e' e in
      if e'' == e' then tree else node l t' e'' r
    else if cmp < 0 then
      let l' = upsert merge grew t e c l in
      if l' == l then tree
      else if !grew && height l' <= height r + 2 then
        Node { nd with l = l'; lh = join_lh (imin c (m asr 6)) (lh l') (lh r) }
      else balance l' t' e' r
    else
      let r' = upsert merge grew t e c r in
      if r' == r then tree
      else if !grew && height r' <= height l + 2 then
        Node { nd with r = r'; lh = join_lh (imin c (m asr 6)) (lh l) (lh r') }
      else balance l t' e' r'

let add_merge merge t ~texp r =
  check_arity r t;
  let grew = ref false in
  let tree = upsert merge grew t texp (code texp) r.tree in
  if tree == r.tree then r
  else { r with tree; size = (if !grew then r.size + 1 else r.size) }

let keep_max old e = if after e old then e else old
let keep_min old e = if after old e then e else old
let keep_new old e = if old == e || Time.equal old e then old else e

let add t ~texp r = add_merge keep_max t ~texp r
let add_min t ~texp r = add_merge keep_min t ~texp r
let replace t ~texp r = add_merge keep_new t ~texp r

let rec delete t = function
  | Leaf -> Leaf
  | Node { l; t = t'; e; r; _ } as n ->
    let c = Tuple.compare t t' in
    if c = 0 then glue l r
    else if c < 0 then
      let l' = delete t l in
      if l' == l then n else balance l' t' e r
    else
      let r' = delete t r in
      if r' == r then n else balance l t' e r'

let remove t r =
  let tree = delete t r.tree in
  if tree == r.tree then r else { r with tree; size = r.size - 1 }

let rec find t = function
  | Leaf -> raise Not_found
  | Node n ->
    let c = Tuple.compare t n.t in
    if c = 0 then n.e else find t (if c < 0 then n.l else n.r)

let texp r t = find t r.tree

let texp_opt r t =
  let rec go = function
    | Leaf -> None
    | Node n ->
      let c = Tuple.compare t n.t in
      if c = 0 then Some n.e else go (if c < 0 then n.l else n.r)
  in
  go r.tree

let mem t r =
  let rec go = function
    | Leaf -> false
    | Node n ->
      let c = Tuple.compare t n.t in
      c = 0 || go (if c < 0 then n.l else n.r)
  in
  go r.tree

(* The rows [keep] keeps, counting the others in [dropped] and sharing
   every subtree it keeps whole; [skip] subtrees are kept whole
   unvisited. *)
let rec keep_rows ~skip keep dropped = function
  | Leaf -> Leaf
  | n when skip n -> n
  | Node { l; t; e; r; _ } as n ->
    let l' = keep_rows ~skip keep dropped l and r' = keep_rows ~skip keep dropped r in
    if not (keep t e) then (incr dropped; merge l' r')
    else if l' == l && r' == r then n
    else link l' t e r'

let keep_where ~skip keep r =
  let dropped = ref 0 in
  let tree = keep_rows ~skip keep dropped r.tree in
  if tree == r.tree then r else { r with tree; size = r.size - !dropped }

(* Visits only subtrees whose minimum texp is at most [tau]: the nodes on
   the paths to the k expiring rows. *)
let exp tau r =
  let c = code tau in
  keep_where ~skip:(fun n -> low n > c) (fun _ e -> after e tau) r

let fold_expired tau f r acc =
  let c = code tau in
  let rec go n acc =
    match n with
    | Node { lh; _ } when lh asr 6 > c -> acc
    | Leaf -> acc
    | Node { l; t; e; r; _ } ->
      let acc = go l acc in
      let acc = if after e tau then acc else f t e acc in
      go r acc
  in
  go r.tree acc

(* Rows in strictly ascending tuple order (a relation's listing, as a
   shard ships it) build a balanced tree in one pass; any other list
   goes through [add]. *)
let of_list ~arity rows =
  let r = empty ~arity in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> Tuple.compare a b < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  if ascending rows then begin
    List.iter (fun (t, _) -> check_arity r t) rows;
    let rows = Array.of_list rows in
    let rec build lo hi =
      if lo >= hi then Leaf
      else
        let mid = (lo + hi) / 2 in
        let t, e = rows.(mid) in
        node (build lo mid) t e (build (mid + 1) hi)
    in
    { r with tree = build 0 (Array.length rows); size = Array.length rows }
  end
  else List.fold_left (fun r (t, texp) -> add t ~texp r) r rows

let to_list r =
  let rec go acc = function
    | Leaf -> acc
    | Node { l; t; e; r; _ } -> go ((t, e) :: go acc r) l
  in
  go [] r.tree

let tuples r = List.map fst (to_list r)

let iter f r =
  let rec go = function
    | Leaf -> ()
    | Node { l; t; e; r; _ } -> go l; f t e; go r
  in
  go r.tree

let fold f r acc =
  let rec go n acc =
    match n with
    | Leaf -> acc
    | Node { l; t; e; r; _ } -> go r (f t e (go l acc))
  in
  go r.tree acc

let filter f r = keep_where ~skip:(fun _ -> false) f r

let map_tuples ~arity f r =
  fold (fun t texp acc -> add (f t) ~texp acc) r (empty ~arity)

let union_max a b =
  if a.arity <> b.arity then
    invalid_arg "Relation.union_max: arity mismatch (union compatibility)"
  else fold (fun t texp acc -> add t ~texp acc) b a

(* Both relations as cursors in tuple order: a subtree still to visit,
   or a row.  [diff] opens the larger of two unshared subtrees (both
   when their sizes tie), so a path copy meets its original's subtrees
   at the same positions and skips each one whole. *)
type cursor =
  | End
  | Sub of tree * cursor
  | Row of Tuple.t * Time.t * cursor

let push tree rest = if tree == Leaf then rest else Sub (tree, rest)

let open_ tree rest =
  match tree with
  | Node { l; t; e; r; _ } -> push l (Row (t, e, push r rest))
  | Leaf -> rest

(* Walks [before] against [after], calling [gone] on each tuple only
   [before] holds and [up] on each row of [after] that [before] lacks or
   (when [texps]) holds with another texp, in tuple order. *)
let changes ~texps ~gone ~up before after =
  let rec go a b =
    match a, b with
    | End, End -> ()
    | Sub (ta, a'), Sub (tb, b') when ta == tb -> go a' b'
    | Sub (ta, a'), Sub (tb, b') ->
      let ha = height ta and hb = height tb in
      go (if ha >= hb then open_ ta a' else a) (if hb >= ha then open_ tb b' else b)
    | Sub (ta, a'), _ -> go (open_ ta a') b
    | _, Sub (tb, b') -> go a (open_ tb b')
    | Row (ta, ea, a'), Row (tb, eb, b') ->
      let c = if ta == tb then 0 else Tuple.compare ta tb in
      if c < 0 then (gone ta; go a' b)
      else if c > 0 then (up tb eb; go a b')
      else begin
        if texps && not (ea == eb || Time.equal ea eb) then up tb eb;
        go a' b'
      end
    | Row (ta, _, a'), End -> gone ta; go a' End
    | End, Row (tb, eb, b') -> up tb eb; go End b'
  in
  go (push before End) (push after End)

let diff ~limit before after =
  let changed = ref 0 and ups = ref [] and gone = ref [] in
  let change () =
    incr changed;
    if !changed > limit then raise_notrace Exit
  in
  match
    changes ~texps:true before.tree after.tree
      ~gone:(fun t -> change (); gone := t :: !gone)
      ~up:(fun t e -> change (); ups := (t, e) :: !ups)
  with
  | () -> Some (List.rev !ups, List.rev !gone, cardinal after)
  | exception Exit -> None

let same ~texps a b =
  a.arity = b.arity
  && a.size = b.size
  &&
  match changes ~texps a.tree b.tree ~gone:(fun _ -> raise_notrace Exit)
          ~up:(fun _ _ -> raise_notrace Exit) with
  | () -> true
  | exception Exit -> false

let equal a b = same ~texps:true a b
let equal_tuples a b = same ~texps:false a b

let min_texp r =
  match r.tree with
  | Leaf -> Time.Inf
  | Node { lh; _ } when lh asr 6 > bottom_code && lh asr 6 < top_code -> Time.Fin (lh asr 6)
  | Node _ ->
    (* A clamped code: its rows tell the time. *)
    fold (fun _ e acc -> if after acc e then e else acc) r Time.Inf

let max_texp r =
  if is_empty r then Time.Inf
  else fold (fun _ e acc -> Time.max e acc) r (min_texp r)

let expiry_times r =
  let module Time_set = Set.Make (Time) in
  let times =
    fold
      (fun _ e acc -> if Time.is_finite e then Time_set.add e acc else acc)
      r Time_set.empty
  in
  Time_set.elements times

let well_formed r =
  (* The subtree's size, or -1 when an invariant fails within it;
     [lo, hi] bound its tuples. *)
  let rec check lo hi = function
    | Leaf -> 0
    | Node { l; t; e; r = rt; lh = m } ->
      let in_range =
        Option.fold lo ~none:true ~some:(fun lo -> Tuple.compare lo t < 0)
        && Option.fold hi ~none:true ~some:(fun hi -> Tuple.compare t hi < 0)
      in
      let sl = check lo (Some t) l and sr = check (Some t) hi rt in
      let hl = height l and hr = height rt in
      if in_range && sl >= 0 && sr >= 0
         && m land 63 = 1 + max hl hr
         && abs (hl - hr) <= 2
         && m asr 6 = imin (code e) (imin (low l) (low rt))
         && Tuple.arity t = r.arity
      then sl + sr + 1
      else -1
  in
  check None None r.tree = r.size

let pp ppf r =
  if is_empty r then Format.pp_print_string ppf "(empty)"
  else
    Format.pp_print_list
      ~pp_sep:Format.pp_print_newline
      (fun ppf (t, e) -> Format.fprintf ppf "%4s | %a" (Time.to_string e) Tuple.pp t)
      ppf (to_list r)

let to_string r = Format.asprintf "%a" pp r
