(* The expiration-axis exponential histogram.

   Each bucket covers a closed texp span [lo, hi]: every element in it
   expires within the span, and some element expires exactly at [hi]
   (the witness — buckets are created as singletons and only ever merge
   or absorb interior elements, so the witness survives).  Every bucket
   is charged independently at query time: dead below [tau], live in
   full when [lo > tau], and a straddler otherwise, contributing
   between 1 (its witness) and its whole count — hence the hard bound
   [estimate = (c+1)/2] per straddler with [within = (c-1)/2].  A
   single add stream keeps spans disjoint (at most one straddler);
   merged sketches interleave spans and their bounds simply add. *)

(*

   Compression merges adjacent buckets, newest first, while the merged
   count stays under [max 1 (2ε · count above)] — the EH cap that keeps
   the straddler small relative to the provably-live suffix, giving
   O(ε⁻¹ log n) buckets and [within <= ε·live + 1] on in-order
   streams. *)

open Expirel_core

type bucket = {
  mutable lo : Time.t;
  mutable hi : Time.t;
  mutable count : int;
}

type t = {
  eps : float;
  mutable buckets : bucket array;  (* prefix [0, len) in use; sorted, disjoint *)
  mutable len : int;
  mutable total : int;
  mutable compress_at : int;
}

let min_capacity = 64
let fresh_bucket () = { lo = Time.zero; hi = Time.zero; count = 0 }

let create ~epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Counter.create: epsilon must be in (0, 1)";
  { eps = epsilon;
    buckets = Array.init min_capacity (fun _ -> fresh_bucket ());
    len = 0;
    total = 0;
    compress_at = min_capacity
  }

let epsilon t = t.eps
let total t = t.total
let buckets t = t.len

(* First index in [0, len) whose [hi] is [>= texp] ([len] when none). *)
let lower_bound t texp =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Time.(t.buckets.(mid).hi >= texp) then hi := mid else lo := mid + 1
  done;
  !lo

let ensure_room t =
  if t.len = Array.length t.buckets then
    t.buckets <-
      Array.init
        (2 * Array.length t.buckets)
        (fun i -> if i < t.len then t.buckets.(i) else fresh_bucket ())

let insert_at t i bucket =
  ensure_room t;
  Array.blit t.buckets i t.buckets (i + 1) (t.len - i);
  t.buckets.(i) <- bucket;
  t.len <- t.len + 1

let rebuild t kept =
  let arr = Array.of_list kept in
  let capacity = max min_capacity (Array.length arr) in
  t.buckets <-
    Array.init capacity (fun i ->
        if i < Array.length arr then arr.(i) else fresh_bucket ());
  t.len <- Array.length arr;
  t.compress_at <- max min_capacity (2 * t.len)

(* Merge adjacent buckets, newest first, under the EH cap. *)
let compact t =
  if t.len > 1 then begin
    let kept = ref [] in  (* accumulates in ascending order *)
    let above = ref 0 in
    let cur = ref t.buckets.(t.len - 1) in
    for i = t.len - 2 downto 0 do
      let b = t.buckets.(i) in
      let cap = max 1 (int_of_float (2. *. t.eps *. float_of_int !above)) in
      if !cur.count + b.count <= cap then
        cur :=
          { lo = Time.min b.lo !cur.lo;
            hi = !cur.hi;
            count = !cur.count + b.count
          }
      else begin
        kept := !cur :: !kept;
        above := !above + !cur.count;
        cur := b
      end
    done;
    kept := !cur :: !kept;
    rebuild t !kept
  end
  else t.compress_at <- max min_capacity (2 * t.len)

let add t ~texp =
  t.total <- t.total + 1;
  let i = lower_bound t texp in
  if i >= t.len then insert_at t t.len { lo = texp; hi = texp; count = 1 }
  else begin
    let b = t.buckets.(i) in
    if Time.(texp < b.lo) then
      (* Strictly between the previous bucket's span and this one's:
         a new singleton keeps per-element granularity. *)
      insert_at t i { lo = texp; hi = texp; count = 1 }
    else
      (* Inside the span (or exactly at [hi]): the span already admits
         this expiration instant, so fold it in. *)
      b.count <- b.count + 1
  end;
  if t.len > t.compress_at then compact t

type answer = {
  estimate : float;
  within : float;
  horizon : Time.t;
}

let query t ~tau =
  (* Buckets are sorted by [hi]; everything at or below [tau] is dead.
     Among the rest, a bucket whose whole span is above [tau] counts in
     full; a straddler ([lo <= tau < hi]) contributes between 1 (its
     witness at [hi]) and its whole count.  Spans from a single add
     stream are disjoint (at most one straddler); merged sketches may
     interleave spans, and each source contributes its own straddler —
     the bounds simply add. *)
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Time.(t.buckets.(mid).hi > tau) then hi := mid else lo := mid + 1
  done;
  let first = !lo in
  if first >= t.len then
    { estimate = 0.; within = 0.; horizon = Time.infinity }
  else begin
    let estimate = ref 0. in
    let within = ref 0. in
    let horizon = ref Time.infinity in
    for j = first to t.len - 1 do
      let b = t.buckets.(j) in
      let c = float_of_int b.count in
      if Time.(b.lo > tau) then begin
        (* Entirely live; the answer changes when its span starts
           dying at [lo]. *)
        estimate := !estimate +. c;
        horizon := Time.min !horizon b.lo
      end
      else begin
        estimate := !estimate +. ((c +. 1.) /. 2.);
        within := !within +. ((c -. 1.) /. 2.);
        horizon := Time.min !horizon b.hi
      end
    done;
    { estimate = !estimate; within = !within; horizon = !horizon }
  end

let merge a b =
  if a.eps <> b.eps then invalid_arg "Counter.merge: epsilon mismatch";
  let merged = create ~epsilon:a.eps in
  merged.total <- a.total + b.total;
  (* Two-way merge by [hi], coalescing overlapping spans so the merged
     partition stays disjoint (and therefore sound). *)
  (* Two-way merge by [hi], keeping every bucket: overlapping spans
     from different sources are sound (the query charges each bucket
     independently), and coalescing them would destroy resolution.
     Compaction still runs under the EH cap to bound memory. *)
  let out = ref [] in  (* descending accumulation *)
  let i = ref 0 and j = ref 0 in
  while !i < a.len || !j < b.len do
    let take_a =
      !j >= b.len
      || (!i < a.len && Time.(a.buckets.(!i).hi <= b.buckets.(!j).hi))
    in
    let src = if take_a then a.buckets.(!i) else b.buckets.(!j) in
    if take_a then incr i else incr j;
    out := { lo = src.lo; hi = src.hi; count = src.count } :: !out
  done;
  rebuild merged (List.rev !out);
  compact merged;
  merged

let memory_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)

let to_string t =
  Codec.encode
    (fun b t ->
      Codec.put_f64 b t.eps;
      Codec.put_int b t.total;
      Codec.put_list b
        (fun b bucket ->
          Codec.put_time b bucket.lo;
          Codec.put_time b bucket.hi;
          Codec.put_int b bucket.count)
        (List.init t.len (Array.get t.buckets)))
    t

let of_string s =
  Codec.decode ~what:"counter sketch" (fun c ->
      let epsilon = Codec.get_f64 c in
      if not (epsilon > 0. && epsilon < 1.) then Codec.bad "epsilon out of range";
      let total = Codec.get_int c in
      let t = create ~epsilon in
      List.iter
        (fun ({ lo; hi; count } as bucket) ->
          if count < 1 then Codec.bad "empty bucket";
          if Time.(hi < lo) then Codec.bad "inverted bucket span";
          (* Sorted by [hi]; spans may overlap (merged sketches). *)
          if t.len > 0 && Time.(t.buckets.(t.len - 1).hi > hi) then
            Codec.bad "buckets out of order";
          insert_at t t.len bucket)
        (Codec.get_list c (fun c ->
             let lo = Codec.get_time c in
             let hi = Codec.get_time c in
             let count = Codec.get_int c in
             { lo; hi; count }));
      t.total <- total;
      t.compress_at <- max min_capacity (2 * t.len);
      t)
    s
