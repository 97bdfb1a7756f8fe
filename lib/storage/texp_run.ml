open Expirel_core

type chunk = {
  len : int;
  texps : Time.t array;
  cols : Value.t array array;
      (* row [r] is the tuple of [cols.(_).(r)]; rows ascend by
         (texp, tuple) *)
}

(* 256 rows keep every chunk array within the minor heap's block limit
   (256 words): copying a chunk on a delete or an overwrite then costs
   a minor allocation and a memcpy instead of a major-heap allocation
   whose marking and sweeping every later collection pays for. *)
let chunk_rows = 256

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

(* Ascending texp; ties broken by tuple order, so the layout (and every
   profile counter derived from it) is deterministic. *)
let compare_key e1 t1 e2 t2 =
  let c = Time.compare e1 e2 in
  if c <> 0 then c else Tuple.compare t1 t2

(* [compare_key] between row [r] of a chunk and a key.  Tuples in one
   run share the arity, so the column-wise order is [Tuple.compare]'s. *)
let compare_row c r e tu =
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

let tuple_at c r =
  Tuple.init ~arity:(Array.length c.cols) (fun j -> c.cols.(j - 1).(r))

module Key_set = Set.Make (struct
  type t = Time.t * Tuple.t

  let compare (e1, t1) (e2, t2) = compare_key e1 t1 e2 t2
end)

type t = {
  arity : int;
  mutable chunks : chunk array;
      (* never empty chunks, globally ascending; the array is replaced,
         never mutated, so readers may keep the one they got *)
  mutable ends : int array;  (* ends.(i) = rows in chunks.(0..i) *)
  mutable buffer : Key_set.t;  (* the insert buffer, < chunk_rows keys *)
  mutable buffered : int;  (* Key_set.cardinal buffer *)
  mutable buffer_chunk : chunk option;
      (* [buffer] as a chunk, built on first read after a write.  The
         build races benignly between concurrent readers (last store
         wins, both results are equal). *)
}

(* Sorted keys as a chunk. *)
let chunk_of_keys ~arity keys =
  { len = Array.length keys;
    texps = Array.map fst keys;
    cols =
      Array.init arity (fun j ->
          Array.map (fun (_, tu) -> Tuple.attr tu (j + 1)) keys)
  }

(* Rows [lo, hi) of a chunk. *)
let sub_chunk c lo hi =
  let sub a = Array.sub a lo (hi - lo) in
  { len = hi - lo;
    texps = sub c.texps;
    cols = Array.map sub c.cols
  }

(* The chunk without row [r]. *)
let drop_row c r =
  let drop a =
    Array.append (Array.sub a 0 r) (Array.sub a (r + 1) (c.len - r - 1))
  in
  { len = c.len - 1;
    texps = drop c.texps;
    cols = Array.map drop c.cols
  }

let append_chunks a b =
  { len = a.len + b.len;
    texps = Array.append a.texps b.texps;
    cols = Array.map2 Array.append a.cols b.cols
  }

let create ~arity =
  { arity;
    chunks = [||];
    ends = [||];
    buffer = Key_set.empty;
    buffered = 0;
    buffer_chunk = None
  }

let set_chunks t chunks =
  let total = ref 0 in
  t.chunks <- chunks;
  t.ends <-
    Array.map
      (fun c ->
        total := !total + c.len;
        !total)
      chunks

(* Replace chunks [lo, hi) with [pieces]. *)
let splice t lo hi pieces =
  let n = Array.length t.chunks in
  set_chunks t
    (Array.concat
       [ Array.sub t.chunks 0 lo; pieces; Array.sub t.chunks hi (n - hi) ])

let length t =
  let n = Array.length t.ends in
  (if n = 0 then 0 else t.ends.(n - 1)) + t.buffered

let set_buffer t buffer ~delta =
  t.buffer <- buffer;
  t.buffered <- t.buffered + delta;
  t.buffer_chunk <- None

(* The first chunk whose last key is at or after [(e, tu)]. *)
let chunk_reaching t e tu =
  search 0 (Array.length t.chunks) (fun i ->
      let c = t.chunks.(i) in
      compare_row c (c.len - 1) e tu >= 0)

(* The first chunk holding a row with [texp > tau]. *)
let chunk_past t tau =
  search 0 (Array.length t.chunks) (fun i ->
      let c = t.chunks.(i) in
      Time.(c.texps.(c.len - 1) > tau))

(* Merge the full buffer into the chunks its key range overlaps (none,
   when it falls into a gap: it then becomes a chunk of its own) and
   re-split the merged rows evenly into chunks of at most [chunk_rows].
   Chunks outside the range are shared, not copied. *)
let fold_buffer t =
  let keys = Array.of_list (Key_set.elements t.buffer) in
  let m = Array.length keys in
  let e_lo, t_lo = keys.(0) and e_hi, t_hi = keys.(m - 1) in
  let n = Array.length t.chunks in
  let i = chunk_reaching t e_lo t_lo in
  let j = search i n (fun k -> compare_row t.chunks.(k) 0 e_hi t_hi > 0) in
  let start = if i = 0 then 0 else t.ends.(i - 1) in
  let total = m + (if j > i then t.ends.(j - 1) - start else 0) in
  (* The merge cursor: buffer key [b], row [r] of chunk [k]. *)
  let b = ref 0 and k = ref i and r = ref 0 in
  let piece len =
    let texps = Array.make len e_lo in
    let cols = Array.init t.arity (fun _ -> Array.make len Value.Null) in
    for o = 0 to len - 1 do
      let from_buffer =
        !k >= j
        || !b < m
           &&
           let e, tu = keys.(!b) in
           compare_row t.chunks.(!k) !r e tu > 0
      in
      if from_buffer then begin
        let e, tu = keys.(!b) in
        texps.(o) <- e;
        for x = 0 to t.arity - 1 do
          cols.(x).(o) <- Tuple.attr tu (x + 1)
        done;
        incr b
      end
      else begin
        let c = t.chunks.(!k) in
        texps.(o) <- c.texps.(!r);
        for x = 0 to t.arity - 1 do
          cols.(x).(o) <- c.cols.(x).(!r)
        done;
        incr r;
        if !r = c.len then begin
          incr k;
          r := 0
        end
      end
    done;
    { len; texps; cols }
  in
  let pieces = (total + chunk_rows - 1) / chunk_rows in
  (* [Array.init] applies its function in index order, so the pieces
     drain the cursor front to back. *)
  splice t i j
    (Array.init pieces (fun p ->
         piece (((p + 1) * total / pieces) - (p * total / pieces))));
  set_buffer t Key_set.empty ~delta:(-m)

let add t tuple texp =
  set_buffer t (Key_set.add (texp, tuple) t.buffer) ~delta:1;
  if t.buffered >= chunk_rows then fold_buffer t

(* A chunk shrunk below a quarter of the bound is merged into a
   neighbour it fits with, so deletes cannot leave a trail of
   near-empty chunks behind. *)
let replace_shrunk t ci c =
  let n = Array.length t.chunks in
  let fits k = k >= 0 && k < n && t.chunks.(k).len + c.len <= chunk_rows in
  if c.len = 0 then splice t ci (ci + 1) [||]
  else if c.len < chunk_rows / 4 && fits (ci + 1) then
    splice t ci (ci + 2) [| append_chunks c t.chunks.(ci + 1) |]
  else if c.len < chunk_rows / 4 && fits (ci - 1) then
    splice t (ci - 1) (ci + 1) [| append_chunks t.chunks.(ci - 1) c |]
  else splice t ci (ci + 1) [| c |]

let remove t tuple texp =
  let buffer = Key_set.remove (texp, tuple) t.buffer in
  if buffer != t.buffer then set_buffer t buffer ~delta:(-1)
  else
    let ci = chunk_reaching t texp tuple in
    if ci < Array.length t.chunks then begin
      let c = t.chunks.(ci) in
      let r = search 0 c.len (fun r -> compare_row c r texp tuple >= 0) in
      if r < c.len && compare_row c r texp tuple = 0 then
        replace_shrunk t ci (drop_row c r)
    end

let expire_upto t tau =
  let n = Array.length t.chunks in
  (* Chunks [0, k) have wholly expired; chunk [k] holds the cut. *)
  let k = chunk_past t tau in
  let cut =
    if k < n then live_cut t.chunks.(k).texps ~tau 0 t.chunks.(k).len else 0
  in
  let rows_of c hi acc =
    let acc = ref acc in
    for r = hi - 1 downto 0 do
      acc := (tuple_at c r, c.texps.(r)) :: !acc
    done;
    !acc
  in
  let from_chunks = ref (if cut > 0 then rows_of t.chunks.(k) cut [] else []) in
  for i = k - 1 downto 0 do
    from_chunks := rows_of t.chunks.(i) t.chunks.(i).len !from_chunks
  done;
  if cut > 0 then
    splice t 0 (k + 1) [| sub_chunk t.chunks.(k) cut t.chunks.(k).len |]
  else if k > 0 then splice t 0 k [||];
  let from_buffer =
    match Key_set.min_elt_opt t.buffer with
    | Some (e, _) when Time.(e <= tau) ->
      let dead, live =
        Key_set.partition (fun (e, _) -> Time.(e <= tau)) t.buffer
      in
      let dead = List.map (fun (e, tu) -> (tu, e)) (Key_set.elements dead) in
      set_buffer t live ~delta:(-List.length dead);
      dead
    | Some _ | None -> []
  in
  List.merge
    (fun (t1, e1) (t2, e2) -> compare_key e1 t1 e2 t2)
    !from_chunks from_buffer

(* ---------- readers ---------- *)

let sorted_chunks t = t.chunks

let buffer t =
  match t.buffer_chunk with
  | Some c -> c
  | None ->
    let keys = Array.of_list (Key_set.elements t.buffer) in
    let c = chunk_of_keys ~arity:t.arity keys in
    t.buffer_chunk <- Some c;
    c

let iter_chunks f t =
  Array.iter f t.chunks;
  if t.buffered > 0 then f (buffer t)

let fold_live t ~tau f acc =
  let acc =
    Array.fold_left
      (fun acc c ->
        let acc = ref acc in
        for r = live_cut c.texps ~tau 0 c.len to c.len - 1 do
          acc := f (tuple_at c r) c.texps.(r) !acc
        done;
        !acc)
      acc t.chunks
  in
  Key_set.fold
    (fun (e, tu) acc -> if Time.(e > tau) then f tu e acc else acc)
    t.buffer acc

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

let min_texp t =
  either Time.min
    (if Array.length t.chunks = 0 then None else Some t.chunks.(0).texps.(0))
    (Option.map fst (Key_set.min_elt_opt t.buffer))

let max_texp t =
  let n = Array.length t.chunks in
  either Time.max
    (if n = 0 then None
     else
       let c = t.chunks.(n - 1) in
       Some c.texps.(c.len - 1))
    (Option.map fst (Key_set.max_elt_opt t.buffer))

let min_live_texp t ~tau =
  let k = chunk_past t tau in
  either Time.min
    (if k = Array.length t.chunks then None
     else
       let c = t.chunks.(k) in
       Some c.texps.(live_cut c.texps ~tau 0 c.len))
    (Option.map fst
       (Key_set.find_first_opt (fun (e, _) -> Time.(e > tau)) t.buffer))
