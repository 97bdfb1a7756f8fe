open Expirel_core

type chunk = {
  len : int;
  texps : Time.t array;
  cols : Value.t array array;
      (* row [r] is the tuple of [cols.(_).(r)]; rows ascend in the
         run's order *)
}

(* 256 rows keep every chunk array within the minor heap's block limit
   (256 words): copying a chunk on a delete or an overwrite then costs
   a minor allocation and a memcpy instead of a major-heap allocation
   whose marking and sweeping every later collection pays for. *)
let chunk_rows = 256

let make len texps cols = { len; texps; cols }
let empty = make 0 [||] [||]
let last_texp c = c.texps.(c.len - 1)
let chunk_len c = c.len
let chunk_col c j = c.cols.(j - 1)
let chunk_texps c = c.texps

(* First index in [lo, hi) at which the monotone predicate [past]
   (false ... false true ... true) holds; [hi] when none. *)
let search lo hi past =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if past mid then hi := mid else lo := mid + 1
  done;
  !lo

let live_cut texps ~tau lo hi = search lo hi (fun i -> Time.(texps.(i) > tau))

(* A row's place in the run: its leading key ([Null] in an unkeyed
   run), then texp, then tuple — ties broken by tuple order, so the
   layout (and every profile counter derived from it) is
   deterministic. *)
type key = Value.t * Time.t * Tuple.t

let compare_key (k1, e1, t1) (k2, e2, t2) =
  let c = Value.compare k1 k2 in
  if c <> 0 then c
  else
    let c = Time.compare e1 e2 in
    if c <> 0 then c else Tuple.compare t1 t2

type bound =
  | Unbounded
  | Inclusive of Value.t
  | Exclusive of Value.t

let above lo k =
  match lo with
  | Unbounded -> true
  | Inclusive v -> Value.compare k v >= 0
  | Exclusive v -> Value.compare k v > 0

let below hi k =
  match hi with
  | Unbounded -> true
  | Inclusive v -> Value.compare k v <= 0
  | Exclusive v -> Value.compare k v < 0

(* Whether key [k] comes before bound [b]'s cut: below [b] for an
   [upper] bound, not above it for a lower one.  Ascending keys are
   before a cut up to a point, then past it. *)
let before b ~upper k = if upper then below b k else not (above b k)

(* The pending changes: Set.Make's AVL tree over [compare_key], whose
   nodes also count their subtree, so the keys a key range holds are
   counted in O(log n) without allocating.  [add] of a present key and
   [remove] of an absent one return the set itself, as Set.Make's do. *)
module Key_set = struct
  type t =
    | Empty
    | Node of { l : t; v : key; r : t; hn : int }
        (* the subtree's size above its height's 6 bits: a node is no
           larger than a Set.Make node *)

  let empty = Empty
  let is_empty = function Empty -> true | Node _ -> false
  let height = function Empty -> 0 | Node { hn; _ } -> hn land 63
  let cardinal = function Empty -> 0 | Node { hn; _ } -> hn lsr 6

  let packed = function Empty -> 0 | Node { hn; _ } -> hn

  (* A node over children whose packed fields are [hnl] and [hnr]. *)
  let join hnl l v hnr r =
    let hl = hnl land 63 and hr = hnr land 63 in
    Node
      { l; v; r;
        hn = (((hnl lsr 6) + (hnr lsr 6) + 1) lsl 6) lor (if hl >= hr then hl + 1 else hr + 1) }

  let create l v r = join (packed l) l v (packed r) r

  let bal l v r =
    let hnl = packed l and hnr = packed r in
    let hl = hnl land 63 and hr = hnr land 63 in
    if hl > hr + 2 then
      match l with
      | Node { l = ll; v = lv; r = lr; _ } when height ll >= height lr ->
        create ll lv (create lr v r)
      | Node { l = ll; v = lv; r = Node { l = lrl; v = lrv; r = lrr; _ }; _ } ->
        create (create ll lv lrl) lrv (create lrr v r)
      | _ -> invalid_arg "Key_set.bal"
    else if hr > hl + 2 then
      match r with
      | Node { l = rl; v = rv; r = rr; _ } when height rr >= height rl ->
        create (create l v rl) rv rr
      | Node { l = Node { l = rll; v = rlv; r = rlr; _ }; v = rv; r = rr; _ } ->
        create (create l v rll) rlv (create rlr rv rr)
      | _ -> invalid_arg "Key_set.bal"
    else join hnl l v hnr r

  let rec add x = function
    | Empty -> Node { l = Empty; v = x; r = Empty; hn = (1 lsl 6) lor 1 }
    | Node { l; v; r; _ } as t ->
      let c = compare_key x v in
      if c = 0 then t
      else if c < 0 then
        let l' = add x l in
        if l' == l then t else bal l' v r
      else
        let r' = add x r in
        if r' == r then t else bal l v r'

  let rec min_elt = function
    | Empty -> raise Not_found
    | Node { l = Empty; v; _ } -> v
    | Node { l; _ } -> min_elt l

  let rec max_elt = function
    | Empty -> raise Not_found
    | Node { r = Empty; v; _ } -> v
    | Node { r; _ } -> max_elt r

  let min_elt_opt t = if is_empty t then None else Some (min_elt t)
  let max_elt_opt t = if is_empty t then None else Some (max_elt t)

  let rec remove_min = function
    | Empty -> invalid_arg "Key_set.remove_min"
    | Node { l = Empty; r; _ } -> r
    | Node { l; v; r; _ } -> bal (remove_min l) v r

  let rec remove x = function
    | Empty -> Empty
    | Node { l; v; r; _ } as t ->
      let c = compare_key x v in
      if c = 0 then
        match l, r with
        | Empty, s | s, Empty -> s
        | _ -> bal l (min_elt r) (remove_min r)
      else if c < 0 then
        let l' = remove x l in
        if l' == l then t else bal l' v r
      else
        let r' = remove x r in
        if r' == r then t else bal l v r'

  let rec fold_right f t acc =
    match t with Empty -> acc | Node { l; v; r; _ } -> fold_right f l (f v (fold_right f r acc))

  let elements t = fold_right List.cons t []

  (* A balanced tree of the ascending keys [a.(lo .. hi-1)]. *)
  let rec of_sorted a lo hi =
    if lo >= hi then Empty
    else
      let mid = (lo + hi) / 2 in
      create (of_sorted a lo mid) a.(mid) (of_sorted a (mid + 1) hi)

  let of_list keys = let a = Array.of_list keys in of_sorted a 0 (Array.length a)

  let partition p t =
    let yes, no = List.partition p (elements t) in
    if no = [] then (t, Empty) else if yes = [] then (Empty, t) else (of_list yes, of_list no)

  let filter p t = fst (partition p t)

  (* The least key satisfying the monotone [f]. *)
  let rec find_first_opt f = function
    | Empty -> None
    | Node { l; v; r; _ } ->
      if f v then match find_first_opt f l with None -> Some v | found -> found
      else find_first_opt f r

  type enumeration = End | More of key * t * enumeration

  let rec cons_enum s e = match s with Empty -> e | Node { l; v; r; _ } -> cons_enum l (More (v, r, e))

  let rec seq_of_enum c () =
    match c with End -> Seq.Nil | More (x, t, rest) -> Seq.Cons (x, seq_of_enum (cons_enum t rest))

  let to_seq s = seq_of_enum (cons_enum s End)

  let to_seq_from low s =
    let rec from s c =
      match s with
      | Empty -> c
      | Node { l; v; r; _ } ->
        let d = compare_key v low in
        if d = 0 then More (v, r, c) else if d < 0 then from r c else from l (More (v, r, c))
    in
    seq_of_enum (from s End)

  (* Keys whose leading key comes before a bound's cut. *)
  let rec count_before b ~upper = function
    | Empty -> 0
    | Node { l; v = k, _, _; r; _ } ->
      if before b ~upper k then cardinal l + 1 + count_before b ~upper r
      else count_before b ~upper l

  let count_range s ~lo ~hi =
    Int.max 0 (count_before hi ~upper:true s - count_before lo ~upper:false s)
end

type t = {
  arity : int;
  key : int option;  (* the leading key column, 1-based *)
  mutable chunks : chunk array;
      (* never empty chunks, globally ascending; the array is replaced,
         never mutated, so readers may keep the one they got *)
  mutable ends : int array;  (* ends.(i) = rows in chunks.(0..i) *)
  mutable tops : Time.t array;  (* keyed: each chunk's largest texp *)
  mutable least_top : Time.t;  (* keyed: the smallest of [tops] *)
  mutable buffer : Key_set.t;  (* pending adds *)
  mutable buffered : int;  (* Key_set.cardinal buffer *)
  mutable gone : Key_set.t;  (* keyed: chunked rows removed since the last fold *)
  mutable gone_n : int;
  mutable horizon : Time.t option;  (* keyed: rows at or before it are dead *)
  mutable buffer_chunk : chunk option;
      (* [buffer] as a chunk, built on first read after a write.  The
         build races benignly between concurrent readers (last store
         wins, both results are equal). *)
}

let keyed t = Option.is_some t.key
let row_key t c r = match t.key with None -> Value.Null | Some j -> c.cols.(j - 1).(r)

let key_of t tu e =
  ((match t.key with None -> Value.Null | Some j -> Tuple.attr tu j), e, tu)

(* [compare_key] between row [r] of a chunk and a key.  Tuples in one
   run share the arity, so the column-wise order is [Tuple.compare]'s. *)
let compare_row t c r (k, e, tu) =
  let d = Value.compare (row_key t c r) k in
  if d <> 0 then d
  else
    let d = Time.compare c.texps.(r) e in
    if d <> 0 then d
    else
      let rec go j =
        if j = Array.length c.cols then 0
        else
          let d = Value.compare c.cols.(j).(r) (Tuple.attr tu (j + 1)) in
          if d <> 0 then d else go (j + 1)
      in
      go 0

let tuple_at c r = Tuple.init ~arity:(Array.length c.cols) (fun j -> c.cols.(j - 1).(r))

let chunk_of_keys ~arity keys =
  make (Array.length keys)
    (Array.map (fun (_, e, _) -> e) keys)
    (Array.init arity (fun j -> Array.map (fun (_, _, tu) -> Tuple.attr tu (j + 1)) keys))

(* Rows [lo, hi) of a chunk. *)
let sub_chunk c lo hi =
  let sub a = Array.sub a lo (hi - lo) in
  make (hi - lo) (sub c.texps) (Array.map sub c.cols)

let append_chunks a b =
  make (a.len + b.len) (Array.append a.texps b.texps) (Array.map2 Array.append a.cols b.cols)

(* The first [len] rows of [c] split evenly into chunks of at most
   [chunk_rows]. *)
let split c len =
  let pieces = (len + chunk_rows - 1) / chunk_rows in
  if pieces = 1 && len = c.len then [ c ]
  else List.init pieces (fun p -> sub_chunk c (p * len / pieces) ((p + 1) * len / pieces))

let set_chunks t chunks =
  let total = ref 0 in
  t.chunks <- chunks;
  t.ends <- Array.map (fun c -> total := !total + c.len; !total) chunks;
  if keyed t then begin
    t.tops <- Array.map (fun c -> Array.fold_left Time.max (Time.of_int min_int) c.texps) chunks;
    t.least_top <- Array.fold_left Time.min Time.Inf t.tops
  end

(* Replace chunks [lo, hi) with [pieces]. *)
let splice t lo hi pieces =
  let n = Array.length t.chunks in
  set_chunks t
    (Array.concat
       [ Array.sub t.chunks 0 lo; pieces; Array.sub t.chunks hi (n - hi) ])

let length t =
  let n = Array.length t.ends in
  (if n = 0 then 0 else t.ends.(n - 1)) + t.buffered - t.gone_n

let set_buffer t buffer ~delta =
  t.buffer <- buffer;
  t.buffered <- t.buffered + delta;
  t.buffer_chunk <- None

let dead t e = match t.horizon with Some h -> Time.(e <= h) | None -> false

(* The first chunk whose last row is at or after [k]. *)
let chunk_reaching t k =
  search 0 (Array.length t.chunks) (fun i ->
      let c = t.chunks.(i) in
      compare_row t c (c.len - 1) k >= 0)

(* The first chunk holding a row with [texp > tau] (unkeyed runs). *)
let chunk_past t tau =
  search 0 (Array.length t.chunks) (fun i -> Time.(last_texp t.chunks.(i) > tau))

(* Chunk [c] merged with the sorted pending adds [adds.(a..a1)] and
   without the pending removals [gone.(g..g1)] and the dead rows, split
   evenly into chunks of at most [chunk_rows]. *)
let merge t c adds a a1 gone g g1 =
  let cap = c.len + a1 - a in
  let texps = Array.make cap Time.zero in
  let cols = Array.init t.arity (fun _ -> Array.make cap Value.Null) in
  let o = ref 0 and a = ref a and g = ref g and r = ref 0 in
  (* Keeps a row unless it is dead: its texp, and [get x] for column [x]. *)
  let emit e get =
    if not (dead t e) then begin
      texps.(!o) <- e;
      for x = 0 to t.arity - 1 do cols.(x).(!o) <- get x done;
      incr o
    end
  in
  while !r < c.len || !a < a1 do
    if !r < c.len && (!a >= a1 || compare_row t c !r adds.(!a) < 0) then begin
      while !g < g1 && compare_row t c !r gone.(!g) > 0 do incr g done;
      let r' = !r in
      if !g >= g1 || compare_row t c r' gone.(!g) <> 0 then
        emit c.texps.(r') (fun x -> c.cols.(x).(r'));
      incr r
    end
    else begin
      let _, e, tu = adds.(!a) in
      emit e (fun x -> Tuple.attr tu (x + 1));
      incr a
    end
  done;
  split (make cap texps cols) !o

(* Adjacent chunks merge while one of them is under a quarter of the
   bound and both fit in one, so removals cannot leave a trail of
   near-empty chunks behind. *)
let rec coalesce = function
  | a :: b :: rest
    when (a.len < chunk_rows / 4 || b.len < chunk_rows / 4)
         && a.len + b.len <= chunk_rows ->
    coalesce (append_chunks a b :: rest)
  | c :: rest -> c :: coalesce rest
  | [] -> []

(* Apply the pending adds and removals: a change belongs to the first
   chunk whose last row is at or after it (the last chunk past the
   end), and each chunk that receives one is merged with its share and
   re-split; the others are shared, not copied. *)
let fold t =
  let adds = Array.of_list (Key_set.elements t.buffer) in
  let gone = Array.of_list (Key_set.elements t.gone) in
  let n = Array.length t.chunks in
  let a = ref 0 and g = ref 0 and acc = ref [] in
  let upto i keys p =
    let c = t.chunks.(i) in
    while !p < Array.length keys && (i = n - 1 || compare_row t c (c.len - 1) keys.(!p) >= 0) do
      incr p
    done
  in
  if n = 0 then acc := List.rev (merge t empty adds 0 (Array.length adds) gone 0 0);
  for i = 0 to n - 1 do
    let a0 = !a and g0 = !g in
    upto i adds a;
    upto i gone g;
    acc :=
      if !a = a0 && !g = g0 then t.chunks.(i) :: !acc
      else List.rev_append (merge t t.chunks.(i) adds a0 !a gone g0 !g) !acc
  done;
  set_chunks t (Array.of_list (coalesce (List.rev !acc)));
  set_buffer t Key_set.empty ~delta:(-t.buffered);
  t.gone <- Key_set.empty;
  t.gone_n <- 0

let create ?key ~arity rows =
  let t =
    { arity; key; chunks = [||]; ends = [||]; tops = [||]; least_top = Time.Inf;
      buffer = Key_set.empty; buffered = 0; gone = Key_set.empty; gone_n = 0;
      horizon = None; buffer_chunk = None }
  in
  let keys = Array.of_list (List.map (fun (tu, e) -> key_of t tu e) rows) in
  Array.stable_sort compare_key keys;
  let c = chunk_of_keys ~arity keys in
  if c.len > 0 then set_chunks t (Array.of_list (split c c.len));
  t

(* An unkeyed run's buffer is laid out for its readers, so it stays
   under [chunk_rows].  A keyed run's readers seek its pending changes
   instead, so they may grow to a quarter of the run: with scattered
   keys a fold rewrites every chunk, about 4 row copies per change. *)
let check_fold t =
  let bound = if t.key = None then chunk_rows else max chunk_rows (length t / 4) in
  if t.buffered + t.gone_n >= bound then fold t

let add t tuple texp =
  let k = key_of t tuple texp in
  let gone = Key_set.remove k t.gone in
  if gone != t.gone then begin
    t.gone <- gone;
    t.gone_n <- t.gone_n - 1
  end
  else set_buffer t (Key_set.add k t.buffer) ~delta:1;
  check_fold t

let remove t tuple texp =
  let k = key_of t tuple texp in
  let buffer = Key_set.remove k t.buffer in
  if buffer != t.buffer then set_buffer t buffer ~delta:(-1)
  else
    match t.key with
    | Some _ ->
      let gone = Key_set.add k t.gone in
      if gone != t.gone then begin
        t.gone <- gone;
        t.gone_n <- t.gone_n + 1;
        check_fold t
      end
    | None ->
      (* The chunk holding the row, copied without it and coalesced with
         its neighbours. *)
      let n = Array.length t.chunks in
      let i = chunk_reaching t k in
      let c = if i < n then t.chunks.(i) else empty in
      let r = search 0 c.len (fun r -> compare_row t c r k >= 0) in
      if r < c.len && compare_row t c r k = 0 then begin
        let drop a = Array.append (Array.sub a 0 r) (Array.sub a (r + 1) (c.len - r - 1)) in
        let lo = max 0 (i - 1) and hi = min n (i + 2) in
        let at j = if j = i then make (c.len - 1) (drop c.texps) (Array.map drop c.cols) else t.chunks.(j) in
        List.init (hi - lo) (fun j -> at (lo + j))
        |> List.filter (fun c -> c.len > 0) |> coalesce |> Array.of_list |> splice t lo hi
      end

let expire_upto t tau =
  let n = Array.length t.chunks in
  (* Chunks [0, k) have wholly expired; chunk [k] holds the cut. *)
  let k = chunk_past t tau in
  let cut = if k < n then live_cut t.chunks.(k).texps ~tau 0 t.chunks.(k).len else 0 in
  let due = ref [] in
  let take c hi =
    for r = hi - 1 downto 0 do
      due := (tuple_at c r, c.texps.(r)) :: !due
    done
  in
  if cut > 0 then take t.chunks.(k) cut;
  for i = k - 1 downto 0 do
    take t.chunks.(i) t.chunks.(i).len
  done;
  if cut > 0 then splice t 0 (k + 1) [| sub_chunk t.chunks.(k) cut t.chunks.(k).len |]
  else if k > 0 then splice t 0 k [||];
  let dead, live =
    match Key_set.min_elt_opt t.buffer with
    | Some (_, e, _) when Time.(e <= tau) ->
      Key_set.partition (fun (_, e, _) -> Time.(e <= tau)) t.buffer
    | Some _ | None -> (Key_set.empty, t.buffer)
  in
  if live != t.buffer then set_buffer t live ~delta:(-Key_set.cardinal dead);
  List.merge
    (fun (t1, e1) (t2, e2) ->
      match Time.compare e1 e2 with 0 -> Tuple.compare t1 t2 | c -> c)
    !due
    (List.map (fun (_, e, tu) -> (tu, e)) (Key_set.elements dead))

let forget_upto t tau =
  t.horizon <- Some (match t.horizon with Some h -> Time.max h tau | None -> tau);
  if Time.(t.least_top <= tau) then begin
    (* Wholly expired chunks go, and with them the removals that may
       point into them. *)
    set_chunks t
      (Array.of_list (List.filteri (fun i _ -> Time.(t.tops.(i) > tau)) (Array.to_list t.chunks)));
    t.gone <- Key_set.filter (fun (_, e, _) -> Time.(e > tau)) t.gone;
    t.gone_n <- Key_set.cardinal t.gone
  end

(* ---------- readers ---------- *)

let sorted_chunks t = t.chunks

let buffer t =
  match t.buffer_chunk with
  | Some c -> c
  | None ->
    let c = chunk_of_keys ~arity:t.arity (Array.of_list (Key_set.elements t.buffer)) in
    t.buffer_chunk <- Some c;
    c

let iter_chunks f t =
  Array.iter f t.chunks;
  if t.buffered > 0 then f (buffer t)

let fold_live t ~tau f acc =
  let acc = ref acc in
  iter_chunks
    (fun c ->
      for r = live_cut c.texps ~tau 0 c.len to c.len - 1 do
        acc := f (tuple_at c r) c.texps.(r) !acc
      done)
    t;
  !acc

let count_upto t tau =
  let n = Array.length t.chunks in
  let k = chunk_past t tau in
  let chunked =
    (if k = 0 then 0 else t.ends.(k - 1))
    + if k < n then live_cut t.chunks.(k).texps ~tau 0 t.chunks.(k).len else 0
  in
  let b = buffer t in
  chunked + live_cut b.texps ~tau 0 b.len

(* The chunks' and the buffer's candidates, combined. *)
let either f a b =
  match a, b with
  | Some x, Some y -> Some (f x y)
  | (Some _ as x), None | None, x -> x

let texp_of (_, e, _) = e

let min_texp t =
  either Time.min
    (if Array.length t.chunks = 0 then None else Some t.chunks.(0).texps.(0))
    (Option.map texp_of (Key_set.min_elt_opt t.buffer))

let max_texp t =
  let n = Array.length t.chunks in
  either Time.max
    (if n = 0 then None else Some (last_texp t.chunks.(n - 1)))
    (Option.map texp_of (Key_set.max_elt_opt t.buffer))

let min_live_texp t ~tau =
  let k = chunk_past t tau in
  either Time.min
    (if k = Array.length t.chunks then None
     else
       let c = t.chunks.(k) in
       Some c.texps.(live_cut c.texps ~tau 0 c.len))
    (Option.map texp_of
       (Key_set.find_first_opt (fun (_, e, _) -> Time.(e > tau)) t.buffer))

(* ---------- keyed readers ---------- *)

(* The first chunk in [a, b) whose last key is past the cut, and the
   first row in [a, b) of a chunk past it: binary searches without a
   closure. *)
let rec chunk_past_cut t cut ~upper a b =
  if a >= b then a
  else
    let m = (a + b) / 2 in
    let c = t.chunks.(m) in
    if before cut ~upper (row_key t c (c.len - 1)) then chunk_past_cut t cut ~upper (m + 1) b
    else chunk_past_cut t cut ~upper a m

let rec row_past_cut t c cut ~upper a b =
  if a >= b then a
  else
    let m = (a + b) / 2 in
    if before cut ~upper (row_key t c m) then row_past_cut t c cut ~upper (m + 1) b
    else row_past_cut t c cut ~upper a m

(* Rows [a, b) of a chunk whose key falls in the bounds. *)
let span t c ~lo ~hi =
  let a = row_past_cut t c lo ~upper:false 0 c.len in
  (a, row_past_cut t c hi ~upper:true a c.len)

(* Chunks [i, j) may hold keys in the bounds; those strictly inside hold
   nothing else. *)
let chunk_span t ~lo ~hi =
  let n = Array.length t.chunks in
  let i = chunk_past_cut t lo ~upper:false 0 n in
  (i, search i n (fun i -> not (below hi (row_key t t.chunks.(i) 0))))

(* The keys of a pending set in the bounds, ascending: a seek, then the
   keys in range — the pending changes are never laid out. *)
let pending_in set ~lo ~hi =
  (match lo with
   | Unbounded -> Key_set.to_seq set
   | Inclusive v | Exclusive v ->
     Key_set.to_seq_from (v, Time.of_int min_int, Tuple.of_list []) set)
  |> Seq.drop_while (fun (k, _, _) -> not (above lo k))
  |> Seq.take_while (fun (k, _, _) -> below hi k)

let key_extrema t =
  let n = Array.length t.chunks and key (k, _, _) = k in
  if Key_set.is_empty t.buffer then
    if n = 0 then None
    else
      let last = t.chunks.(n - 1) in
      Some (row_key t t.chunks.(0) 0, row_key t last (last.len - 1))
  else
    let lo = key (Key_set.min_elt t.buffer) and hi = key (Key_set.max_elt t.buffer) in
    if n = 0 then Some (lo, hi)
    else
      (* The chunks ascend: their extremes are the first and last rows. *)
      let last = t.chunks.(n - 1) in
      let clo = row_key t t.chunks.(0) 0 and chi = row_key t last (last.len - 1) in
      Some
        ( (if Value.compare clo lo <= 0 then clo else lo),
          if Value.compare chi hi >= 0 then chi else hi )

(* Chunked rows whose key comes before the cut: a prefix of the run. *)
let chunked_before t cut ~upper =
  let n = Array.length t.chunks in
  let i = chunk_past_cut t cut ~upper 0 n in
  if i = n then if n = 0 then 0 else t.ends.(n - 1)
  else
    (if i = 0 then 0 else t.ends.(i - 1))
    + row_past_cut t t.chunks.(i) cut ~upper 0 t.chunks.(i).len

let count_range t ~lo ~hi =
  Int.max 0 (chunked_before t hi ~upper:true - chunked_before t lo ~upper:false)
  + Key_set.count_range t.buffer ~lo ~hi - Key_set.count_range t.gone ~lo ~hi

let scan_range t ~tau ~lo ~hi ~visited ~dropped f =
  let i, j = chunk_span t ~lo ~hi in
  for k = i to j - 1 do
    let c = t.chunks.(k) in
    let a, b = span t c ~lo ~hi in
    if a < b && Time.(t.tops.(k) <= tau) then dropped := !dropped + (b - a)
    else if a < b then begin
      (* One key's rows ascend by texp: its live rows are a cut. *)
      let a' =
        if Value.compare (row_key t c a) (row_key t c (b - 1)) = 0 then
          live_cut c.texps ~tau a b
        else a
      in
      let gone =
        if Key_set.is_empty t.gone || a' = b then ref Seq.empty
        else ref (Key_set.to_seq_from (row_key t c a', c.texps.(a'), tuple_at c a') t.gone)
      in
      let rec skip r =
        match !gone () with
        | Seq.Cons (k, rest) when compare_row t c r k > 0 -> gone := rest; skip r
        | Seq.Cons (k, _) -> compare_row t c r k = 0
        | Seq.Nil -> false
      in
      (* A pending removal is skipped, not dropped: only an expired
         row counts as dropped. *)
      let sel = Array.make (b - a') 0 and m = ref 0 and expired = ref (a' - a) in
      for r = a' to b - 1 do
        if Time.(c.texps.(r) <= tau) then incr expired
        else if not (skip r) then begin
          sel.(!m) <- r;
          incr m
        end
      done;
      visited := !visited + (b - a');
      dropped := !dropped + !expired;
      if !m = c.len then f c None
      else if !m > 0 then f c (Some (Array.sub sel 0 !m))
    end
  done;
  let pending = List.of_seq (pending_in t.buffer ~lo ~hi) in
  let live = List.filter (fun (_, e, _) -> Time.(e > tau)) pending in
  visited := !visited + List.length pending;
  dropped := !dropped + List.length pending - List.length live;
  if live <> [] then f (chunk_of_keys ~arity:t.arity (Array.of_list live)) None
