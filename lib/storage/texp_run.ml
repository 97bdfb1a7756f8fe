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
   written out and inlined into the searches and merges: the dev build
   compiles modules opaquely, so a call into [Time] or [Value] is an
   out-of-line call. *)
let[@inline] compare_time e1 e2 =
  match e1, e2 with
  | Time.Fin a, Time.Fin b -> Int.compare a b
  | _ -> Time.compare e1 e2

let[@inline] compare_value k1 k2 =
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

(* A row's place in the run: its leading key [k] ([Null] in a table's
   own run, keyed on that constant), then texp, then tuple — ties broken
   by tuple order, so the layout (and every profile counter derived from
   it) is deterministic.  [p] is an int monotone in that order, so most
   comparisons read one int a side: the texp in a table's own run
   ([Inf] as [max_int]); in an index, an [Int] key's value, with [Null]
   and [Bool] as [min_int] and [Float] and [Str] as [max_int]. *)
type key = { p : int; k : Value.t; e : Time.t; tu : Tuple.t }

(* [Tuple.compare] from attribute [j] on, for tuples of one arity [n],
   without the closure it allocates. *)
let rec compare_attrs a b j n =
  if j > n then 0
  else
    let d = compare_value (Tuple.attr a j) (Tuple.attr b j) in
    if d <> 0 then d else compare_attrs a b (j + 1) n

let[@inline] compare_key a b =
  if a.p <> b.p then (if a.p < b.p then -1 else 1)
  else
    let c = compare_value a.k b.k in
    if c <> 0 then c
    else
      let c = compare_time a.e b.e in
      if c <> 0 then c else compare_attrs a.tu b.tu 1 (Tuple.arity a.tu)

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

(* Fills arrays before their slots are written.  Built once at start-up
   and so in the major heap after the first minor collection: a large
   [Array.make] with a young initial value would force one. *)
let dummy = { p = max_int; k = Value.Null; e = Time.Inf; tu = Tuple.of_list [] }

(* The ascending slices [a.(i0 .. i1-1)] and [b.(j0 .. j1-1)] merged:
   copied end to end when one wholly precedes the other, as the levels
   of keys that arrive in order do. *)
let merge_keys a i0 i1 b j0 j1 =
  let la = i1 - i0 and lb = j1 - j0 in
  let out = Array.make (la + lb) dummy in
  if la = 0 || lb = 0 || compare_key a.(i1 - 1) b.(j0) < 0 then begin
    Array.blit a i0 out 0 la;
    Array.blit b j0 out la lb
  end
  else if compare_key b.(j1 - 1) a.(i0) < 0 then begin
    Array.blit b j0 out 0 lb;
    Array.blit a i0 out lb la
  end
  else begin
    let i = ref i0 and j = ref j0 in
    for o = 0 to la + lb - 1 do
      if !j >= j1 || (!i < i1 && compare_key a.(!i) b.(!j) < 0) then begin
        out.(o) <- a.(!i);
        incr i
      end
      else begin
        out.(o) <- b.(!j);
        incr j
      end
    done
  end;
  out

(* The first of [a.(lo .. hi-1)] at or after key [k]. *)
let rec seek a k lo hi =
  if lo >= hi then lo
  else
    let m = (lo + hi) / 2 in
    if compare_key a.(m) k >= 0 then seek a k lo m else seek a k (m + 1) hi

(* The first of [a.(lo .. hi-1)] whose texp is after [tau] (keys of a
   constant-keyed run ascend by texp). *)
let rec past_texp a tau lo hi =
  if lo >= hi then lo
  else
    let m = (lo + hi) / 2 in
    if compare_time a.(m).e tau > 0 then past_texp a tau lo m else past_texp a tau (m + 1) hi

(* The number of keys of [a.(lo .. hi-1)] before bound [b]'s cut. *)
let rec keys_before a b ~upper lo hi =
  if lo >= hi then lo
  else
    let m = (lo + hi) / 2 in
    if before b ~upper a.(m).k then keys_before a b ~upper (m + 1) hi else keys_before a b ~upper lo m

(* A set of pending changes: immutable sorted key arrays in levels,
   smallest first, each at most half the size of the next, and a write
   buffer of at most [chunk_rows] keys kept sorted in place.  A key is
   held at most once.  An insertion shifts the buffer's tail, a
   memmove while the buffer is young; a full buffer becomes the
   smallest level and equal levels merge, so a key is copied O(log n)
   times before a fold.  Readers search each level and the buffer and
   store nothing. *)
module Pending = struct
  type t = {
    mutable buf : key array;  (* [chunk_rows] slots once written; [fill] used *)
    mutable fill : int;
    mutable levels : key array list;
    mutable size : int;
  }

  let create () = { buf = [||]; fill = 0; levels = []; size = 0 }
  let size p = p.size

  let clear p =
    p.buf <- [||];
    p.fill <- 0;
    p.levels <- [];
    p.size <- 0

  (* A new level merges with every next one it is not at most half. *)
  let rec push a = function
    | b :: rest when 2 * Array.length a > Array.length b ->
      push (merge_keys a 0 (Array.length a) b 0 (Array.length b)) rest
    | levels -> a :: levels

  (* [k], not held, joins the buffer; a full buffer becomes a level. *)
  let insert p k =
    if Array.length p.buf = 0 then p.buf <- Array.make chunk_rows dummy;
    let n = p.fill in
    let i = if n = 0 || compare_key p.buf.(n - 1) k < 0 then n else seek p.buf k 0 n in
    if i < n then Array.blit p.buf i p.buf (i + 1) (n - i);
    p.buf.(i) <- k;
    p.fill <- n + 1;
    p.size <- p.size + 1;
    if p.fill = chunk_rows then begin
      p.levels <- push p.buf p.levels;
      p.buf <- [||];
      p.fill <- 0
    end

  let find a n k =
    let i = seek a k 0 n in
    if i < n && compare_key a.(i) k = 0 then i else -1

  (* Level [l] without its key [i]: a fresh array, as readers may hold
     [l]. *)
  let without l i =
    let n = Array.length l in
    let out = Array.sub l 0 (n - 1) in
    Array.blit l (i + 1) out i (n - 1 - i);
    out

  (* Whether [k] was in the buffer; it is not now. *)
  let remove_buffered p k =
    let i = find p.buf p.fill k in
    i >= 0
    && begin
      Array.blit p.buf (i + 1) p.buf i (p.fill - 1 - i);
      p.fill <- p.fill - 1;
      p.size <- p.size - 1;
      true
    end

  (* Whether [k] was held; it is not now.  A key in a level rebuilds
     that one level. *)
  let remove p k =
    p.size > 0
    && (remove_buffered p k
       ||
       let rec drop = function
         | [] -> raise_notrace Not_found
         | l :: rest ->
           let i = find l (Array.length l) k in
           if i < 0 then l :: drop rest
           else if Array.length l = 1 then rest
           else without l i :: rest
       in
       match drop p.levels with
       | levels ->
         p.levels <- levels;
         p.size <- p.size - 1;
         true
       | exception Not_found -> false)

  (* The keys in [lo a n, hi a n) of the buffer's and each level's [n]
     keys, merged ascending into a fresh array. *)
  let merged p lo hi =
    let slice a n = let i = lo a n in (a, i, Int.max i (hi a n)) in
    let a, i, i1 =
      List.fold_left
        (fun (a, i, i1) l ->
          let b, j, j1 = slice l (Array.length l) in
          if j = j1 then (a, i, i1)
          else
            let m = merge_keys a i i1 b j j1 in
            (m, 0, Array.length m))
        (slice p.buf p.fill) p.levels
    in
    if a == p.buf then Array.sub a i (i1 - i) else a

  let to_array p = merged p (fun _ _ -> 0) (fun _ n -> n)

  (* Only the keys satisfying [keep]. *)
  let filter p keep =
    let kept a n =
      let m = ref 0 in
      for i = 0 to n - 1 do if keep a.(i) then incr m done;
      if !m = n then a
      else begin
        let out = Array.make !m dummy and o = ref 0 in
        for i = 0 to n - 1 do
          if keep a.(i) then begin out.(!o) <- a.(i); incr o end
        done;
        out
      end
    in
    let m = ref 0 in
    for i = 0 to p.fill - 1 do
      if keep p.buf.(i) then begin p.buf.(!m) <- p.buf.(i); incr m end
    done;
    p.fill <- !m;
    p.levels <- List.filter (fun l -> Array.length l > 0) (List.map (fun l -> kept l (Array.length l)) p.levels);
    p.size <- List.fold_left (fun n l -> n + Array.length l) p.fill p.levels

  (* ---------- readers: a search of the buffer and of each level ---------- *)

  (* Keys with [texp <= tau] (a constant-keyed set). *)
  let rec upto_levels tau = function
    | [] -> 0
    | l :: rest -> past_texp l tau 0 (Array.length l) + upto_levels tau rest

  let count_upto p tau = if p.size = 0 then 0 else past_texp p.buf tau 0 p.fill + upto_levels tau p.levels

  (* The least key with texp after [tau] among [a.(0 .. n-1)] and
     [best]. *)
  let after a n tau best =
    let i = past_texp a tau 0 n in
    if i = n then best
    else match best with Some b when compare_key b a.(i) <= 0 -> best | _ -> Some a.(i)

  let rec after_levels tau best = function
    | [] -> best
    | l :: rest -> after_levels tau (after l (Array.length l) tau best) rest

  let first_after p tau = after_levels tau (after p.buf p.fill tau None) p.levels

  (* The least and the greatest key of a non-empty set. *)
  let lesser best l = if compare_key l.(0) best < 0 then l.(0) else best

  let greater best l =
    let x = l.(Array.length l - 1) in
    if compare_key x best > 0 then x else best

  let first p = List.fold_left lesser (if p.fill > 0 then p.buf.(0) else (List.hd p.levels).(0)) p.levels

  let last p =
    let top =
      if p.fill > 0 then p.buf.(p.fill - 1)
      else let l = List.hd p.levels in l.(Array.length l - 1)
    in
    List.fold_left greater top p.levels

  (* Keys in the bounds. *)
  let in_range a n ~lo ~hi =
    Int.max 0 (keys_before a hi ~upper:true 0 n - keys_before a lo ~upper:false 0 n)

  let rec range_levels ~lo ~hi = function
    | [] -> 0
    | l :: rest -> in_range l (Array.length l) ~lo ~hi + range_levels ~lo ~hi rest

  let count_range p ~lo ~hi =
    if p.size = 0 then 0 else in_range p.buf p.fill ~lo ~hi + range_levels ~lo ~hi p.levels

  (* Keys before [k]. *)
  let rec lt_levels k = function
    | [] -> 0
    | l :: rest -> seek l k 0 (Array.length l) + lt_levels k rest

  let count_lt p k = if p.size = 0 then 0 else seek p.buf k 0 p.fill + lt_levels k p.levels

  (* [f] over the buffer's and each level's keys, as an array and a
     length. *)
  let fold_arrays f acc p = List.fold_left (fun acc l -> f acc l (Array.length l)) (f acc p.buf p.fill) p.levels

  (* Whether [cmp] (positive before its target, negative after) finds
     its target. *)
  let mem_by p cmp =
    let mem a n =
      let i = search 0 n (fun i -> cmp a.(i) <= 0) in
      i < n && cmp a.(i) = 0
    in
    p.size > 0 && (mem p.buf p.fill || List.exists (fun l -> mem l (Array.length l)) p.levels)
end

(* The keys of ascending [a] that ascending [b] does not hold. *)
let minus a b =
  let na = Array.length a and nb = Array.length b in
  let shared = ref 0 and i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let c = compare_key a.(!i) b.(!j) in
    if c = 0 then incr shared;
    if c <= 0 then incr i;
    if c >= 0 then incr j
  done;
  if !shared = 0 then a
  else begin
    let out = Array.make (na - !shared) dummy and o = ref 0 and j = ref 0 in
    Array.iter
      (fun k ->
        while !j < nb && compare_key b.(!j) k < 0 do incr j done;
        if !j >= nb || compare_key b.(!j) k <> 0 then begin
          out.(!o) <- k;
          incr o
        end)
      a;
    out
  end

type t = {
  arity : int;
  key : int option;  (* the leading key column, 1-based; [None]: a constant *)
  mutable chunks : chunk array;
      (* never empty chunks, globally ascending; the array is replaced,
         never mutated, so readers may keep the one they got *)
  mutable ends : int array;  (* ends.(i) = rows in chunks.(0..i) *)
  mutable least_top : Time.t;  (* the smallest chunk top *)
  adds : Pending.t;  (* rows not yet folded into a chunk *)
  gone : Pending.t;
      (* rows removed since the last fold: each names a chunked row or a
         pending add, which readers and the fold net against it *)
  mutable horizon : Time.t;  (* rows at or before it have left the run *)
  mutable least : Time.t;  (* at or before every texp ever added *)
}

let row_key t c r = match t.key with None -> Value.Null | Some j -> c.cols.(j - 1).(r)

let key_of t tu e =
  match t.key with
  | None -> { p = (match e with Time.Fin n -> n | Time.Inf -> max_int); k = Value.Null; e; tu }
  | Some j ->
    let k = Tuple.attr tu j in
    let p =
      match k with
      | Value.Int n -> n
      | Value.Null | Value.Bool _ -> min_int
      | Value.Float _ | Value.Str _ -> max_int
    in
    { p; k; e; tu }

(* [compare_key] between row [r] of a chunk and a key.  Tuples in one
   run share the arity, so the column-wise order is [Tuple.compare]'s. *)
let rec compare_cols c r tu j =
  if j = Array.length c.cols then 0
  else
    let d = compare_value c.cols.(j).(r) (Tuple.attr tu (j + 1)) in
    if d <> 0 then d else compare_cols c r tu (j + 1)

let compare_row t c r { k; e; tu; _ } =
  let d = compare_value (row_key t c r) k in
  if d <> 0 then d
  else
    let d = compare_time c.texps.(r) e in
    if d <> 0 then d else compare_cols c r tu 0

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
      make len (col (fun k -> k.e)) (Array.init arity (fun j -> col (fun k -> Tuple.attr k.tu (j + 1)))))

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

let length t = chunked t + Pending.size t.adds - Pending.size t.gone
let pending t = Pending.size t.adds + Pending.size t.gone

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
  for g = g0 to g1 - 1 do m := !m - live gone.(g).e done;
  for a = a0 to a1 - 1 do m := !m + live adds.(a).e done;
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
      let { e; tu; _ } = adds.(!a) in
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
   the others are shared, not copied.  Each pending set's levels merge
   once here. *)
let fold t =
  let adds = Pending.to_array t.adds and gone = Pending.to_array t.gone in
  let adds = minus adds gone and gone = minus gone adds in
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
  Pending.clear t.adds;
  Pending.clear t.gone

let create ?key ~arity rows =
  let t =
    { arity; key; chunks = [||]; ends = [||]; least_top = Time.Inf; adds = Pending.create ();
      gone = Pending.create (); horizon = Time.of_int min_int; least = Time.Inf }
  in
  let keys = Array.of_list (List.map (fun (tu, e) -> key_of t tu e) rows) in
  Array.stable_sort compare_key keys;
  Array.iter (fun k -> t.least <- Time.min t.least k.e) keys;
  set_chunks t (Array.of_list (chunks_of_keys ~arity keys));
  t

(* Readers search the pending changes, so they may grow to a quarter of
   the run: with scattered keys a fold rewrites every chunk, about 4 row
   copies per change, in any arrival order. *)
let check_fold t = if pending t >= max chunk_rows (length t / 4) then fold t

(* An add cancels a pending removal of its key, in the buffer or in a
   level (which it rebuilds).  A removal drops a pending add of its key
   from the buffer, and else records the removal, which may name a
   pending add in a level: rebuilding that level would copy O(n) keys
   per removal. *)
let add t tuple texp =
  let k = key_of t tuple texp in
  if compare_time texp t.least < 0 then t.least <- texp;
  if not (Pending.remove t.gone k) then Pending.insert t.adds k;
  check_fold t

let remove t tuple texp =
  let k = key_of t tuple texp in
  if not (Pending.remove_buffered t.adds k) then begin
    Pending.insert t.gone k;
    check_fold t
  end

let forget_upto t tau =
  t.horizon <- Time.max t.horizon tau;
  if Time.(t.least_top <= tau) then begin
    (* Wholly expired chunks go, and with them the removals that may
       point into them. *)
    let live = List.filter (fun c -> Time.(c.top > tau)) (Array.to_list t.chunks) in
    set_chunks t (Array.of_list live);
    Pending.filter t.gone (fun k -> Time.(k.e > tau));
    (* The run shrank: its pending changes fold if they are now over
       the bound. *)
    check_fold t
  end

(* Whether chunk row [r] is the next of the ascending pending removals
   [gone] from [!g] on, passing the ones before it. *)
let removed t c r gone g =
  while !g < Array.length gone && compare_row t c r gone.(!g) > 0 do incr g done;
  !g < Array.length gone && compare_row t c r gone.(!g) = 0

(* Two lists of rows descending by [(texp, tuple)] merged onto [acc],
   ascending. *)
let rec merge_down acc a b =
  match a, b with
  | [], l | l, [] -> List.rev_append l acc
  | ((t1, e1) as x) :: a', ((t2, e2) as y) :: b' ->
    let c = match compare_time e1 e2 with 0 -> Tuple.compare t1 t2 | c -> c in
    if c > 0 then merge_down (x :: acc) a' b else merge_down (y :: acc) a b'

(* The rows between the horizon and [tau] leave: the chunked ones are
   read by two cuts, the pending ones by two cuts of the buffer and of
   each level, and neither is copied; a straddling chunk keeps its dead
   prefix until it is rewritten. *)
let expire_upto t tau =
  let h = t.horizon in
  if Time.(tau <= h) then []
  else begin
    let due_in p = Pending.merged p (fun a n -> past_texp a h 0 n) (fun a n -> past_texp a tau 0 n) in
    let gone = due_in t.gone and g = ref 0 and due = ref [] in
    let n = Array.length t.chunks and i = ref (chunk_past t h) in
    while !i < n && Time.(t.chunks.(!i).texps.(0) <= tau) do
      let c = t.chunks.(!i) in
      for r = live_cut c.texps ~tau:h 0 c.len to live_cut c.texps ~tau 0 c.len - 1 do
        if not (removed t c r gone g) then due := (tuple_at c r, c.texps.(r)) :: !due
      done;
      incr i
    done;
    let adds = Array.fold_left (fun acc k -> (k.tu, k.e) :: acc) [] (minus (due_in t.adds) gone) in
    forget_upto t tau;
    merge_down [] !due adds
  end

(* ---------- readers ---------- *)

(* A constant-keyed run's chunked rows with [texp <= tau], and its rows
   with [texp <= tau], the dead included: two binary searches and two
   counts of the pending changes. *)
let chunked_upto t tau =
  let k = chunk_past t tau in
  (if k = 0 then 0 else t.ends.(k - 1))
  + if k < Array.length t.chunks then live_cut t.chunks.(k).texps ~tau 0 t.chunks.(k).len else 0

let held_upto t tau =
  if Time.(tau < t.least) then 0
  else chunked_upto t tau - Pending.count_upto t.gone tau + Pending.count_upto t.adds tau

let count_upto t tau =
  if Time.(tau <= t.horizon) then 0 else held_upto t tau - held_upto t t.horizon

(* The chunk and row of chunked row [p]. *)
let row_at t p =
  let i = search 0 (Array.length t.ends) (fun i -> t.ends.(i) > p) in
  (t.chunks.(i), p - if i = 0 then 0 else t.ends.(i - 1))

(* Chunked rows before key [k]. *)
let chunked_lt t k =
  let n = Array.length t.chunks in
  let i = search 0 n (fun i -> let c = t.chunks.(i) in compare_row t c (c.len - 1) k >= 0) in
  if i = n then chunked t
  else
    let c = t.chunks.(i) in
    (if i = 0 then 0 else t.ends.(i - 1)) + search 0 c.len (fun r -> compare_row t c r k >= 0)

(* Rows held before key [k]: exact, as each pending removal names a
   chunked row or a pending add. *)
let held_lt t k = chunked_lt t k + Pending.count_lt t.adds k - Pending.count_lt t.gone k

let key_at t p = let c, r = row_at t p in key_of t (tuple_at c r) c.texps.(r)

(* The held key that [m] held keys precede ([m < length t]).  The
   chunked rows and pending adds [k] with [held_lt t k <= m] are a
   prefix of each sorted source, and that key is the greatest of them:
   a binary search per source, O(levels² · log² n).  Readers take it
   only when the candidate they cut is a pending removal. *)
let nth_held t m =
  let past k = held_lt t k > m in
  let later a b = match a with Some x when compare_key x b > 0 -> a | _ -> Some b in
  let q = search 0 (chunked t) (fun q -> past (key_at t q)) in
  let best = if q = 0 then None else Some (key_at t (q - 1)) in
  Pending.fold_arrays
    (fun best a n ->
      let i = search 0 n (fun i -> past a.(i)) in
      if i = 0 then best else later best a.(i - 1))
    best t.adds
  |> Option.get

(* The texp of whichever comes first ([first]) or last of chunked row
   [p], if any, and pending add [k], unless a pending removal names it. *)
let pick t ~first p k =
  let in_chunks = 0 <= p && p < chunked t in
  let c, r = if in_chunks then row_at t p else (empty, 0) in
  match k with
  | Some k when (not in_chunks) || (compare_row t c r k < 0) <> first ->
    if Pending.mem_by t.gone (compare_key k) then None else Some k.e
  | _ ->
    if (not in_chunks) || Pending.mem_by t.gone (compare_row t c r) then None else Some c.texps.(r)

let min_live_texp t ~tau =
  let tau = Time.max tau t.horizon in
  let before = held_upto t tau in
  if before >= length t then None
  else
    match pick t ~first:true (chunked_upto t tau) (Pending.first_after t.adds tau) with
    | Some _ as e -> e
    | None -> Some (nth_held t before).e

let min_texp t = min_live_texp t ~tau:t.horizon

let max_texp t =
  let n = length t in
  if n = 0 then None
  else
    let last = if Pending.size t.adds = 0 then None else Some (Pending.last t.adds) in
    let e =
      match pick t ~first:false (chunked t - 1) last with
      | Some e -> e
      | None -> (nth_held t (n - 1)).e
    in
    if dead t e then None else Some e

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

let key_extrema t =
  let n = Array.length t.chunks in
  if Pending.size t.adds = 0 then
    if n = 0 then None
    else
      let last = t.chunks.(n - 1) in
      Some (row_key t t.chunks.(0) 0, row_key t last (last.len - 1))
  else
    let lo = (Pending.first t.adds).k and hi = (Pending.last t.adds).k in
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
  + Pending.count_range t.adds ~lo ~hi - Pending.count_range t.gone ~lo ~hi

(* Chunk [c]'s rows in the bounds live at [tau] that the ascending
   removals [gone] from [!g] on do not name, passed to [f]. *)
let scan_chunk t c ~tau ~lo ~hi ~gone ~g ~visited ~dropped f =
  let a, b = span t c ~lo ~hi in
  if a < b && Time.(c.top <= tau) then dropped := !dropped + (b - a)
  else if a < b then begin
    (* One key's rows ascend by texp: its live rows are a cut. *)
    let one_key = compare_value (row_key t c a) (row_key t c (b - 1)) = 0 in
    let a' = if one_key then live_cut c.texps ~tau a b else a in
    let clean =
      a' = b
      || (ignore (removed t c a' gone g : bool);
          !g >= Array.length gone || compare_row t c (b - 1) gone.(!g) < 0)
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
        else if not (removed t c r gone g) then begin
          sel.(!m) <- r;
          incr m
        end
      done;
      dropped := !dropped + !expired;
      if !m = c.len then f c None
      else if !m > 0 then f c (Some (Array.sub sel 0 !m))
    end
  end

(* The chunks in the bounds, then the pending adds in them: one
   ascending merge of the buffer's and each level's slice, laid out in
   chunks.  The pending removals in the bounds are merged once and
   passed in step with the chunks. *)
let scan_range t ~tau ~lo ~hi ~visited ~dropped f =
  let tau = Time.max tau t.horizon in
  let in_bounds p =
    Pending.merged p (fun a n -> keys_before a lo ~upper:false 0 n) (fun a n ->
        keys_before a hi ~upper:true 0 n)
  in
  let gone = in_bounds t.gone and g = ref 0 in
  let i, j = chunk_span t ~lo ~hi in
  for k = i to j - 1 do
    scan_chunk t t.chunks.(k) ~tau ~lo ~hi ~gone ~g ~visited ~dropped f
  done;
  if Pending.size t.adds > 0 then
    List.iter
      (fun c -> scan_chunk t c ~tau ~lo ~hi ~gone:[||] ~g:(ref 0) ~visited ~dropped f)
      (chunks_of_keys ~arity:t.arity (minus (in_bounds t.adds) gone))
