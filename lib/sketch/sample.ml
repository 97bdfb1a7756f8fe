(* Priority sampling along the expiration axis.

   Retention rule: an element [e] stays resident iff fewer than [k]
   elements with [texp >= texp(e)] (breaking texp ties by priority)
   have priority smaller than [e]'s.  Whatever [tau] a query later
   picks, the live set is exactly a texp-suffix of the candidates, so
   the k smallest-priority live elements all satisfy the rule and are
   still resident — the query answer equals the answer a full log would
   give, making the sample exactly uniform over the live set.

   Compaction evaluates the rule with one descending-texp sweep holding
   a max-heap of the k smallest priorities seen so far.  The resident
   set is the "k-skyline" of the (texp, priority) order; its expected
   size is O(k log n) for n distinct texps. *)

open Expirel_core

type entry = {
  row : Value.t list;
  e_texp : Time.t;
  prio : float;
}

type t = {
  k : int;
  mutable entries : entry list;
  mutable size : int;
  mutable added : int;
  mutable compress_at : int;
  rng : Random.State.t;
}

(* Saturates: [4k + 32] overflows for k past [max_int / 4]. *)
let floor_capacity k = if k > (max_int - 32) / 4 then max_int else (4 * k) + 32

let create ?seed ~k () =
  if k < 1 then invalid_arg "Sample.create: k must be >= 1";
  let rng =
    match seed with
    | Some s -> Random.State.make [| s; 0x5ce7c4 |]
    | None -> Random.State.make_self_init ()
  in
  { k; entries = []; size = 0; added = 0; compress_at = floor_capacity k; rng }

let k t = t.k
let added t = t.added
let size t = t.size

(* ---------- the sweep (shared by compact and merge) ---------- *)

(* Max-heap of at most [k] floats, backing one sweep. *)
let sift_down heap n i0 =
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let largest = ref !i in
    if l < n && heap.(l) > heap.(!largest) then largest := l;
    if r < n && heap.(r) > heap.(!largest) then largest := r;
    if !largest = !i then continue_ := false
    else begin
      let tmp = heap.(!i) in
      heap.(!i) <- heap.(!largest);
      heap.(!largest) <- tmp;
      i := !largest
    end
  done

let sift_up heap i0 =
  let i = ref i0 in
  while !i > 0 && heap.((!i - 1) / 2) < heap.(!i) do
    let parent = (!i - 1) / 2 in
    let tmp = heap.(parent) in
    heap.(parent) <- heap.(!i);
    heap.(!i) <- tmp;
    i := parent
  done

(* Keep exactly the entries satisfying the retention rule. *)
let skyline k entries =
  let arr = Array.of_list entries in
  Array.sort
    (fun a b ->
      match Time.compare b.e_texp a.e_texp with
      | 0 -> Float.compare a.prio b.prio
      | c -> c)
    arr;
  (* The heap never holds more than the entries swept, whatever [k]. *)
  let heap = Array.make (min k (Array.length arr)) infinity in
  let hn = ref 0 in
  let kept = ref [] in
  let nkept = ref 0 in
  Array.iter
    (fun e ->
      if !hn < k || e.prio < heap.(0) then begin
        kept := e :: !kept;
        incr nkept;
        if !hn < k then begin
          heap.(!hn) <- e.prio;
          incr hn;
          sift_up heap (!hn - 1)
        end
        else begin
          heap.(0) <- e.prio;
          sift_down heap !hn 0
        end
      end)
    arr;
  (!kept, !nkept)

let compact t =
  let kept, n = skyline t.k t.entries in
  t.entries <- kept;
  t.size <- n;
  t.compress_at <- max (floor_capacity t.k) (2 * n)

let add_with_priority t row ~texp ~prio =
  t.entries <- { row; e_texp = texp; prio } :: t.entries;
  t.size <- t.size + 1;
  t.added <- t.added + 1;
  if t.size > t.compress_at then compact t

let add t row ~texp =
  add_with_priority t row ~texp ~prio:(Random.State.float t.rng 1.)

let query t ~tau =
  let live = List.filter (fun e -> Time.(e.e_texp > tau)) t.entries in
  let sorted = List.sort (fun a b -> Float.compare a.prio b.prio) live in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | e :: rest -> (e.row, e.e_texp) :: take (n - 1) rest
  in
  take t.k sorted

let horizon t ~tau =
  Time.min_list (List.map snd (query t ~tau))

let merge a b =
  if a.k <> b.k then invalid_arg "Sample.merge: k mismatch";
  let kept, n = skyline a.k (List.rev_append a.entries b.entries) in
  { k = a.k;
    entries = kept;
    size = n;
    added = a.added + b.added;
    compress_at = max (floor_capacity a.k) (2 * n);
    rng = Random.State.copy a.rng
  }

let entries t = List.map (fun e -> (e.row, e.e_texp, e.prio)) t.entries

let memory_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)

let to_string t =
  Codec.encode
    (fun b t ->
      Codec.put_int b t.k;
      Codec.put_int b t.added;
      Codec.put_list b
        (fun b e ->
          Codec.put_list b Codec.put_value e.row;
          Codec.put_time b e.e_texp;
          Codec.put_f64 b e.prio)
        t.entries)
    t

let of_string s =
  Codec.decode ~what:"sample sketch" (fun c ->
      let k = Codec.get_int c in
      if k < 1 then Codec.bad "k out of range";
      let added = Codec.get_int c in
      let entries =
        Codec.get_list c (fun c ->
            let row = Codec.get_list c Codec.get_value in
            let e_texp = Codec.get_time c in
            let prio = Codec.get_f64 c in
            { row; e_texp; prio })
      in
      let t = create ~k () in
      t.entries <- entries;
      t.size <- List.length entries;
      t.added <- added;
      t.compress_at <- max (floor_capacity k) (2 * t.size);
      t)
    s
