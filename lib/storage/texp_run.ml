open Expirel_core

type chunk = {
  len : int;
  texps : Time.t array;
  cols : Value.t array array;
      (* row [r] is the tuple of [cols.(_).(r)]; rows ascend in the
         run's order *)
  top : Time.t;  (* the largest of the [len] texps *)
}

(* 256 rows keep every chunk array within the minor heap's block limit
   (256 words): writing a chunk at a fold, or a selection a scan cuts
   from one, then costs a minor allocation instead of a major-heap one
   whose marking and sweeping every later collection pays for. *)
let chunk_rows = 256

(* [Time.compare] and [Value.compare], with the cases runs compare most
   written out: the dev build compiles modules opaquely, so a call into
   [Time] or [Value] is an out-of-line call. *)
let compare_time e1 e2 =
  match e1, e2 with
  | Time.Fin a, Time.Fin b -> Int.compare a b
  | _ -> Time.compare e1 e2

let compare_value k1 k2 =
  if k1 == k2 then 0
  else match k1, k2 with Value.Int a, Value.Int b -> Int.compare a b | _ -> Value.compare k1 k2

let make len texps cols =
  let top = ref (Time.of_int min_int) in
  for r = 0 to len - 1 do
    if compare_time texps.(r) !top > 0 then top := texps.(r)
  done;
  { len; texps; cols; top = !top }

let empty = make 0 [||] [||]
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

(* A row's place in the run: its leading key ([Null] in a table's own
   run, keyed on that constant), then texp, then tuple — ties broken by
   tuple order, so the layout (and every profile counter derived from
   it) is deterministic. *)
type key = Value.t * Time.t * Tuple.t

let compare_key (k1, e1, t1) (k2, e2, t2) =
  let c = compare_value k1 k2 in
  if c <> 0 then c
  else
    let c = compare_time e1 e2 in
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

  (* The keys ascending, in one array. *)
  let to_array t =
    match t with
    | Empty -> [||]
    | Node { v; _ } ->
      let a = Array.make (cardinal t) v and i = ref 0 in
      let rec fill = function
        | Empty -> ()
        | Node { l; v; r; _ } -> fill l; a.(!i) <- v; incr i; fill r
      in
      fill t;
      a

  let filter p t =
    let yes = List.filter p (elements t) in
    if List.compare_length_with yes (cardinal t) = 0 then t else of_list yes

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

  (* The keys satisfying the monotone [p] (true ... true false ...
     false): O(log n), allocating nothing. *)
  let rec count_while p = function
    | Empty -> 0
    | Node { l; v; r; _ } -> if p v then cardinal l + 1 + count_while p r else count_while p l

  let count_range s ~lo ~hi =
    let before b ~upper = count_while (fun (k, _, _) -> before b ~upper k) s in
    Int.max 0 (before hi ~upper:true - before lo ~upper:false)

  (* [f] over a constant-keyed set's keys with [after < texp <= upto],
     ascending. *)
  let rec fold_between ~after ~upto f t acc =
    match t with
    | Empty -> acc
    | Node { l; v = (_, e, _) as v; r; _ } ->
      let past = compare_time e after > 0 and due = compare_time e upto <= 0 in
      let acc = if past then fold_between ~after ~upto f l acc else acc in
      let acc = if past && due then f v acc else acc in
      if due then fold_between ~after ~upto f r acc else acc

  (* A constant-keyed set's keys with [texp <= tau], and its least texp
     after [tau]: descents without a closure. *)
  let rec count_upto tau = function
    | Empty -> 0
    | Node { l; v = _, e, _; r; _ } ->
      if compare_time e tau <= 0 then cardinal l + 1 + count_upto tau r else count_upto tau l

  let rec first_after tau = function
    | Empty -> None
    | Node { l; v = _, e, _; r; _ } ->
      if compare_time e tau > 0 then match first_after tau l with None -> Some e | found -> found
      else first_after tau r
end

(* The pending adds: a tree, and an unsorted batch of the keys added
   since it was last settled.  One immutable value, replaced in one
   store: readers that settle it concurrently store equal values. *)
type adds = { set : Key_set.t; batch : key list }

let no_adds = { set = Key_set.empty; batch = [] }

type t = {
  arity : int;
  key : int option;  (* the leading key column, 1-based; [None]: a constant *)
  mutable chunks : chunk array;
      (* never empty chunks, globally ascending; the array is replaced,
         never mutated, so readers may keep the one they got *)
  mutable ends : int array;  (* ends.(i) = rows in chunks.(0..i) *)
  mutable least_top : Time.t;  (* the smallest chunk top *)
  mutable adds : adds;  (* pending adds *)
  mutable adds_n : int;  (* their number *)
  mutable gone : Key_set.t;  (* chunked rows removed since the last fold *)
  mutable gone_n : int;
  mutable horizon : Time.t;  (* rows at or before it have left the run *)
  mutable least : Time.t;  (* at or before every texp ever added *)
  mutable adds_chunks : chunk list option;
      (* [adds] laid out as chunks, on the first full scan after they
         change.  The build races benignly between concurrent readers
         (last store wins, both results are equal), as [settle] does. *)
}

let row_key t c r = match t.key with None -> Value.Null | Some j -> c.cols.(j - 1).(r)

let key_of t tu e =
  ((match t.key with None -> Value.Null | Some j -> Tuple.attr tu j), e, tu)

(* [compare_key] between row [r] of a chunk and a key.  Tuples in one
   run share the arity, so the column-wise order is [Tuple.compare]'s. *)
let compare_row t c r (k, e, tu) =
  let d = compare_value (row_key t c r) k in
  if d <> 0 then d
  else
    let d = compare_time c.texps.(r) e in
    if d <> 0 then d
    else
      let rec go j =
        if j = Array.length c.cols then 0
        else
          let d = compare_value c.cols.(j).(r) (Tuple.attr tu (j + 1)) in
          if d <> 0 then d else go (j + 1)
      in
      go 0

let tuple_at c r = Tuple.init ~arity:(Array.length c.cols) (fun j -> c.cols.(j - 1).(r))

(* Ascending keys in chunks of at most [chunk_rows], split evenly: their
   arrays stay in the minor heap, as do the selections scans cut from
   them. *)
let chunks_of_keys ~arity keys =
  let n = Array.length keys in
  let pieces = (n + chunk_rows - 1) / chunk_rows in
  List.init pieces (fun p ->
      let lo = p * n / pieces in
      let len = ((p + 1) * n / pieces) - lo in
      let col f = Array.init len (fun i -> f keys.(lo + i)) in
      make len (col (fun (_, e, _) -> e))
        (Array.init arity (fun j -> col (fun (_, _, tu) -> Tuple.attr tu (j + 1)))))

let append_chunks a b =
  make (a.len + b.len) (Array.append a.texps b.texps) (Array.map2 Array.append a.cols b.cols)

let set_chunks t chunks =
  let total = ref 0 in
  t.chunks <- chunks;
  t.ends <- Array.map (fun c -> total := !total + c.len; !total) chunks;
  t.least_top <- Array.fold_left (fun m c -> Time.min m c.top) Time.Inf chunks

let chunked t =
  let n = Array.length t.ends in
  if n = 0 then 0 else t.ends.(n - 1)

let length t = chunked t + t.adds_n - t.gone_n
let pending t = t.adds_n + t.gone_n

let set_adds t adds ~delta =
  t.adds <- adds;
  t.adds_n <- t.adds_n + delta;
  t.adds_chunks <- None

(* The ascending arrays [a] and [b] merged. *)
let merge_keys a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) a.(0) and i = ref 0 and j = ref 0 in
    for o = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && compare_key a.(!i) b.(!j) < 0) then begin
        out.(o) <- a.(!i);
        incr i
      end
      else begin
        out.(o) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* A key's int prefix, monotone in [compare_key]: a table's own run
   orders by texp first, an index by its key. *)
let prefix t ((k, e, _) : key) =
  match t.key with
  | None -> (match e with Time.Fin n -> n | Time.Inf -> max_int)
  | Some _ -> (
    match k with
    | Value.Null | Value.Bool _ -> min_int
    | Value.Int n -> n
    | Value.Float _ | Value.Str _ -> max_int)

(* Keys [a.(lo .. hi-1)], of one prefix, ascending: an insertion sort
   when few, else a merge sort. *)
let sort_span a lo hi =
  if hi - lo <= 8 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) and j = ref i in
      while !j > lo && compare_key a.(!j - 1) x > 0 do
        a.(!j) <- a.(!j - 1);
        decr j
      done;
      a.(!j) <- x
    done
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.stable_sort compare_key s;
    Array.blit s 0 a lo (hi - lo)
  end

(* The keys ascending: an LSD radix sort, a byte a pass, of each key's
   prefix offset from the least prefix (unsigned), carrying the key's
   index; passes stop at the offsets' highest nonzero byte.  Then
   [compare_key] orders each run of equal prefixes.  Loops, not
   closures: a fold sorts thousands of keys. *)
let sort_keys t keys =
  let n = Array.length keys in
  let off = Array.make n 0 and ix = Array.make n 0 and least = ref max_int in
  for i = 0 to n - 1 do
    let p = prefix t keys.(i) in
    off.(i) <- p;
    ix.(i) <- i;
    if p < !least then least := p
  done;
  let bits = ref 0 in
  for i = 0 to n - 1 do
    let o = off.(i) - !least in
    off.(i) <- o;
    bits := !bits lor o
  done;
  let bits = !bits and count = Array.make 256 0 in
  (* One pass moves [off] and [ix] by byte [shift] into [off'] and [ix']. *)
  let rec pass off ix off' ix' shift =
    if shift >= Sys.int_size || bits lsr shift = 0 then (off, ix)
    else begin
      Array.fill count 0 256 0;
      for i = 0 to n - 1 do
        let b = (off.(i) lsr shift) land 255 in
        count.(b) <- count.(b) + 1
      done;
      let at = ref 0 in
      for b = 0 to 255 do
        let c = count.(b) in
        count.(b) <- !at;
        at := !at + c
      done;
      for i = 0 to n - 1 do
        let o = off.(i) in
        let b = (o lsr shift) land 255 in
        let p = count.(b) in
        off'.(p) <- o;
        ix'.(p) <- ix.(i);
        count.(b) <- p + 1
      done;
      pass off' ix' off ix (shift + 8)
    end
  in
  let off, ix = pass off ix (Array.make n 0) (Array.make n 0) 0 in
  let out = Array.map (fun i -> keys.(i)) ix in
  let lo = ref 0 in
  for i = 1 to n do
    if i = n || off.(i) <> off.(!lo) then begin
      if i - !lo > 1 then sort_span out !lo i;
      lo := i
    end
  done;
  out

(* The pending adds ascending: the batch sorted once, merged with the
   tree's keys. *)
let sorted_adds t p = merge_keys (Key_set.to_array p.set) (sort_keys t (Array.of_list p.batch))

(* The pending adds as one tree, stored back so a batch is sorted once:
   a batch of k keys goes in by k [Key_set.add]s when that costs less
   than a pass over the tree (k · height < size, or k = 1), else sorted
   and merged with the tree's keys in one pass. *)
let settle t =
  let p = t.adds in
  match p.batch with
  | [] -> p.set
  | batch ->
    let k = List.length batch in
    let set =
      if k = 1 || k * Key_set.height p.set < Key_set.cardinal p.set then
        List.fold_left (fun s x -> Key_set.add x s) p.set batch
      else
        let a = sorted_adds t p in
        Key_set.of_sorted a 0 (Array.length a)
    in
    t.adds <- { set; batch = [] };
    set

let dead t e = compare_time e t.horizon <= 0

(* The first chunk holding a row with [texp > tau] (a constant-keyed
   run, whose chunks ascend by texp). *)
let chunk_past t tau = search 0 (Array.length t.chunks) (fun i -> Time.(t.chunks.(i).top > tau))

(* Chunk [c] merged with the sorted pending adds [adds.(a0..a1)] and
   without the pending removals [gone.(g0..g1)] (each names a row of
   [c]) and the dead rows, written straight into chunks of at most
   [chunk_rows] split evenly, reversed onto [acc]: each array is sized
   exactly from the counts, so none is copied again. *)
let merge t c adds a0 a1 gone g0 g1 acc =
  let live e = if dead t e then 0 else 1 in
  let m = ref 0 in
  for r = 0 to c.len - 1 do m := !m + live c.texps.(r) done;
  for g = g0 to g1 - 1 do let _, e, _ = gone.(g) in m := !m - live e done;
  for a = a0 to a1 - 1 do let _, e, _ = adds.(a) in m := !m + live e done;
  let m = !m in
  let pieces = (m + chunk_rows - 1) / chunk_rows in
  let acc = ref acc and piece = ref 0 and o = ref 0 in
  let texps = ref [||] and cols = ref [||] and top = ref (Time.of_int min_int) in
  let start () =
    let len = ((!piece + 1) * m / pieces) - (!piece * m / pieces) in
    texps := Array.make len Time.zero;
    cols := Array.init t.arity (fun _ -> Array.make len Value.Null);
    o := 0
  in
  if m > 0 then start ();
  (* The row just written at [o] with texp [e] is kept: the chunk is
     closed once full. *)
  let commit e =
    !texps.(!o) <- e;
    if compare_time e !top > 0 then top := e;
    incr o;
    if !o = Array.length !texps then begin
      acc := { len = !o; texps = !texps; cols = !cols; top = !top } :: !acc;
      top := Time.of_int min_int;
      incr piece;
      if !piece < pieces then start ()
    end
  in
  let a = ref a0 and g = ref g0 and r = ref 0 in
  while !r < c.len || !a < a1 do
    if !r < c.len && (!a >= a1 || compare_row t c !r adds.(!a) < 0) then begin
      let r' = !r in
      while !g < g1 && compare_row t c r' gone.(!g) > 0 do incr g done;
      let e = c.texps.(r') in
      if (!g >= g1 || compare_row t c r' gone.(!g) <> 0) && not (dead t e) then begin
        for x = 0 to t.arity - 1 do !cols.(x).(!o) <- c.cols.(x).(r') done;
        commit e
      end;
      incr r
    end
    else begin
      let _, e, tu = adds.(!a) in
      if not (dead t e) then begin
        for x = 0 to t.arity - 1 do !cols.(x).(!o) <- Tuple.attr tu (x + 1) done;
        commit e
      end;
      incr a
    end
  done;
  assert (!piece = pieces);
  !acc

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
   end), and each chunk that receives one is rewritten with its share;
   the others are shared, not copied.  The batch is sorted here once. *)
let fold t =
  let adds = sorted_adds t t.adds and gone = Key_set.to_array t.gone in
  let n = Array.length t.chunks in
  let a = ref 0 and g = ref 0 and acc = ref [] in
  let upto i keys p =
    let c = t.chunks.(i) in
    while !p < Array.length keys && (i = n - 1 || compare_row t c (c.len - 1) keys.(!p) >= 0) do
      incr p
    done
  in
  if n = 0 then acc := merge t empty adds 0 (Array.length adds) gone 0 0 [];
  for i = 0 to n - 1 do
    let a0 = !a and g0 = !g in
    upto i adds a;
    upto i gone g;
    acc :=
      if !a = a0 && !g = g0 then t.chunks.(i) :: !acc
      else merge t t.chunks.(i) adds a0 !a gone g0 !g !acc
  done;
  set_chunks t (Array.of_list (coalesce (List.rev !acc)));
  set_adds t no_adds ~delta:(-t.adds_n);
  t.gone <- Key_set.empty;
  t.gone_n <- 0

let create ?key ~arity rows =
  let t =
    { arity; key; chunks = [||]; ends = [||]; least_top = Time.Inf; adds = no_adds;
      adds_n = 0; gone = Key_set.empty; gone_n = 0; horizon = Time.of_int min_int;
      least = Time.Inf; adds_chunks = None }
  in
  let keys = sort_keys t (Array.of_list (List.map (fun (tu, e) -> key_of t tu e) rows)) in
  Array.iter (fun (_, e, _) -> t.least <- Time.min t.least e) keys;
  set_chunks t (Array.of_list (chunks_of_keys ~arity keys));
  t

(* Readers count, seek or skip the pending changes (a full scan lays the
   adds out once per change of them), so they may grow to a quarter of
   the run: with scattered keys a fold rewrites every chunk, about 4 row
   copies per change, in any arrival order. *)
let check_fold t = if pending t >= max chunk_rows (length t / 4) then fold t

let add t tuple texp =
  let k = key_of t tuple texp in
  if compare_time texp t.least < 0 then t.least <- texp;
  let gone = Key_set.remove k t.gone in
  if gone != t.gone then begin
    t.gone <- gone;
    t.gone_n <- t.gone_n - 1
  end
  else set_adds t { t.adds with batch = k :: t.adds.batch } ~delta:1;
  check_fold t

let remove t tuple texp =
  let k = key_of t tuple texp in
  let set = settle t in
  let adds = Key_set.remove k set in
  if adds != set then set_adds t { set = adds; batch = [] } ~delta:(-1)
  else begin
    let gone = Key_set.add k t.gone in
    if gone != t.gone then begin
      t.gone <- gone;
      t.gone_n <- t.gone_n + 1;
      check_fold t
    end
  end

let forget_upto t tau =
  t.horizon <- Time.max t.horizon tau;
  if Time.(t.least_top <= tau) then begin
    (* Wholly expired chunks go, and with them the removals that may
       point into them. *)
    let live = List.filter (fun c -> Time.(c.top > tau)) (Array.to_list t.chunks) in
    set_chunks t (Array.of_list live);
    t.gone <- Key_set.filter (fun (_, e, _) -> Time.(e > tau)) t.gone;
    t.gone_n <- Key_set.cardinal t.gone;
    (* The run shrank: its pending changes fold if they are now over
       the bound. *)
    check_fold t
  end

(* Whether chunk row [r] is the next of the ascending pending removals
   [gone], dropping the ones before it. *)
let rec removed t c r gone =
  match !gone () with
  | Seq.Cons (k, rest) when compare_row t c r k > 0 -> gone := rest; removed t c r gone
  | Seq.Cons (k, _) -> compare_row t c r k = 0
  | Seq.Nil -> false

(* Two lists of rows descending by [(texp, tuple)] merged onto [acc],
   ascending. *)
let rec merge_down acc a b =
  match a, b with
  | [], l | l, [] -> List.rev_append l acc
  | ((t1, e1) as x) :: a', ((t2, e2) as y) :: b' ->
    let c = match compare_time e1 e2 with 0 -> Tuple.compare t1 t2 | c -> c in
    if c > 0 then merge_down (x :: acc) a' b else merge_down (y :: acc) a b'

(* The rows between the horizon and [tau] leave: the chunked ones are
   read by two cuts, the pending ones by a seek, and neither is copied;
   a straddling chunk keeps its dead prefix until it is rewritten. *)
let expire_upto t tau =
  let h = t.horizon in
  if Time.(tau <= h) then []
  else begin
    let gone = Key_set.fold_between ~after:h ~upto:tau List.cons t.gone [] in
    let skip = gone <> [] and gone = ref (List.to_seq (List.rev gone)) and due = ref [] in
    let n = Array.length t.chunks and i = ref (chunk_past t h) in
    while !i < n && Time.(t.chunks.(!i).texps.(0) <= tau) do
      let c = t.chunks.(!i) in
      for r = live_cut c.texps ~tau:h 0 c.len to live_cut c.texps ~tau 0 c.len - 1 do
        if not (skip && removed t c r gone) then due := (tuple_at c r, c.texps.(r)) :: !due
      done;
      incr i
    done;
    let adds =
      Key_set.fold_between ~after:h ~upto:tau (fun (_, e, tu) acc -> (tu, e) :: acc) (settle t) []
    in
    forget_upto t tau;
    merge_down [] !due adds
  end

(* ---------- readers ---------- *)

(* The chunks' and the pending adds' candidates, combined. *)
let either f a b =
  match a, b with
  | Some x, Some y -> Some (f x y)
  | (Some _ as x), None | None, x -> x

(* A constant-keyed run's chunked rows with [texp <= tau], and its rows
   with [texp <= tau], the dead included: two binary searches and two
   counts of the pending changes. *)
let chunked_upto t tau =
  let k = chunk_past t tau in
  (if k = 0 then 0 else t.ends.(k - 1))
  + if k < Array.length t.chunks then live_cut t.chunks.(k).texps ~tau 0 t.chunks.(k).len else 0

let held_upto t tau =
  if Time.(tau < t.least) then 0
  else chunked_upto t tau - Key_set.count_upto tau t.gone + Key_set.count_upto tau (settle t)

let count_upto t tau =
  if Time.(tau <= t.horizon) then 0 else held_upto t tau - held_upto t t.horizon

(* The chunk and row of chunked row [p]. *)
let row_at t p =
  let i = search 0 (Array.length t.ends) (fun i -> t.ends.(i) > p) in
  (t.chunks.(i), p - if i = 0 then 0 else t.ends.(i - 1))

let texp_at t p = let c, r = row_at t p in c.texps.(r)

(* Whether a pending removal names chunked row [p]: one descent. *)
let gone_at t p =
  (not (Key_set.is_empty t.gone))
  &&
  let c, r = row_at t p in
  let rec mem = function
    | Key_set.Empty -> false
    | Key_set.Node { l; v; r = right; _ } ->
      let d = compare_row t c r v in
      d = 0 || mem (if d < 0 then l else right)
  in
  mem t.gone

(* Chunked rows in [p, q) that no pending removal names. *)
let kept t p q =
  let gone_before p =
    if p >= chunked t then t.gone_n
    else
      let c, r = row_at t p in
      Key_set.count_while (fun k -> compare_row t c r k > 0) t.gone
  in
  q - p - (gone_before q - gone_before p)

let min_live_texp t ~tau =
  let tau = Time.max tau t.horizon and total = chunked t in
  let p = chunked_upto t tau in
  let first =
    if p >= total || not (gone_at t p) then p else search p total (fun q -> kept t p (q + 1) > 0)
  in
  either Time.min
    (if first < total then Some (texp_at t first) else None)
    (Key_set.first_after tau (settle t))

let min_texp t = min_live_texp t ~tau:t.horizon

let max_texp t =
  let total = chunked t in
  let last =
    if total > 0 && not (gone_at t (total - 1)) then total - 1
    else search 0 total (fun q -> kept t q total = 0) - 1
  in
  let live e = if dead t e then None else Some e in
  either Time.max
    (if last < 0 then None else live (texp_at t last))
    (if t.adds_n = 0 then None else live (let _, e, _ = Key_set.max_elt (settle t) in e))

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
  let a = match lo with Unbounded -> 0 | _ -> row_past_cut t c lo ~upper:false 0 c.len in
  (a, match hi with Unbounded -> c.len | _ -> row_past_cut t c hi ~upper:true a c.len)

(* Chunks [i, j) may hold keys in the bounds; those strictly inside hold
   nothing else. *)
let chunk_span t ~lo ~hi =
  let n = Array.length t.chunks in
  let i = chunk_past_cut t lo ~upper:false 0 n in
  (i, search i n (fun i -> not (below hi (row_key t t.chunks.(i) 0))))

(* The keys of a pending set in the bounds, ascending: a seek, then the
   keys in range. *)
let pending_in set ~lo ~hi =
  (match lo with
   | Unbounded -> Key_set.to_seq set
   | Inclusive v | Exclusive v ->
     Key_set.to_seq_from (v, Time.of_int min_int, Tuple.of_list []) set)
  |> Seq.drop_while (fun (k, _, _) -> not (above lo k))
  |> Seq.take_while (fun (k, _, _) -> below hi k)

let key_extrema t =
  let n = Array.length t.chunks and key (k, _, _) = k in
  if t.adds_n = 0 then
    if n = 0 then None
    else
      let last = t.chunks.(n - 1) in
      Some (row_key t t.chunks.(0) 0, row_key t last (last.len - 1))
  else
    let adds = settle t in
    let lo = key (Key_set.min_elt adds) and hi = key (Key_set.max_elt adds) in
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
  if i = n then chunked t
  else
    (if i = 0 then 0 else t.ends.(i - 1))
    + row_past_cut t t.chunks.(i) cut ~upper 0 t.chunks.(i).len

let count_range t ~lo ~hi =
  Int.max 0 (chunked_before t hi ~upper:true - chunked_before t lo ~upper:false)
  + Key_set.count_range (settle t) ~lo ~hi - Key_set.count_range t.gone ~lo ~hi

let adds_chunks t =
  match t.adds_chunks with
  | Some cs -> cs
  | None ->
    let cs = chunks_of_keys ~arity:t.arity (Key_set.to_array (settle t)) in
    t.adds_chunks <- Some cs;
    cs

(* Chunk [c]'s rows in the bounds live at [tau] that [gone] does not
   name, passed to [f]. *)
let scan_chunk t c ~tau ~lo ~hi ~gone ~visited ~dropped f =
  let a, b = span t c ~lo ~hi in
  if a < b && Time.(c.top <= tau) then dropped := !dropped + (b - a)
  else if a < b then begin
    (* One key's rows ascend by texp: its live rows are a cut. *)
    let one_key = compare_value (row_key t c a) (row_key t c (b - 1)) = 0 in
    let a' = if one_key then live_cut c.texps ~tau a b else a in
    let gone =
      ref
        (if Key_set.is_empty gone || a' = b then Seq.empty
         else Key_set.to_seq_from (row_key t c a', c.texps.(a'), tuple_at c a') gone)
    in
    let clean =
      match !gone () with Seq.Nil -> true | Seq.Cons (k, _) -> compare_row t c (b - 1) k < 0
    in
    visited := !visited + (b - a');
    if one_key && clean then begin
      (* No pending removal falls in the cut: it passes zero-copy. *)
      dropped := !dropped + (a' - a);
      if a' = 0 && b = c.len then f c None
      else if a' < b then f c (Some (Array.init (b - a') (fun i -> a' + i)))
    end
    else begin
      (* A pending removal is skipped, not dropped: only an expired
         row counts as dropped. *)
      let sel = Array.make (b - a') 0 and m = ref 0 and expired = ref (a' - a) in
      for r = a' to b - 1 do
        if Time.(c.texps.(r) <= tau) then incr expired
        else if not (removed t c r gone) then begin
          sel.(!m) <- r;
          incr m
        end
      done;
      dropped := !dropped + !expired;
      if !m = c.len then f c None
      else if !m > 0 then f c (Some (Array.sub sel 0 !m))
    end
  end

let scan_range t ~tau ~lo ~hi ~visited ~dropped f =
  let tau = Time.max tau t.horizon in
  let i, j = chunk_span t ~lo ~hi in
  for k = i to j - 1 do
    scan_chunk t t.chunks.(k) ~tau ~lo ~hi ~gone:t.gone ~visited ~dropped f
  done;
  (match lo, hi with
   | _ when t.adds_n = 0 -> []
   | Unbounded, Unbounded -> adds_chunks t
   | _ -> chunks_of_keys ~arity:t.arity (Array.of_seq (pending_in (settle t) ~lo ~hi)))
  |> List.iter (fun c -> scan_chunk t c ~tau ~lo ~hi ~gone:Key_set.empty ~visited ~dropped f)
