open Expirel_core

(* Decomposed (partial) aggregation — the distributable form of the
   paper's agg^exp (Section 2.6.1).

   A partial condenses one relation fragment into per-group *expiration
   slices*, ascending by expiration time.  For SUM, AVG, MIN and MAX
   there is one slice per distinct member texp, carrying the
   counts/sums/extrema of the members expiring exactly then (the
   immortal members in an [Inf] slice).  COUNT needs less: Table 1 has
   no neutral COUNT member, so the change point nu of Equation (9) is
   always the group's earliest member expiry and the group empties at
   its latest.  A COUNT group is therefore at most two slices — the
   members expiring at the earliest texp, then every other member
   under the latest texp — and in general a COUNT slice counts the
   members expiring after the previous slice, up to and including its
   own texp.  Slices merge componentwise across fragments (the hash
   partitions are disjoint, so counts add and sums combine), and every
   quantity the exact strategy needs — the value at tau, the change
   point nu, the partition's complete-expiration time — is
   recomputable from the merged slices alone.  AVG never travels as an
   average: a slice ships the float sum and the non-null count, and
   the quotient is taken only at finalisation, which is what makes AVG
   combinable where bare per-fragment averages are not.

   The same machinery serves two callers: the executor's fused
   aggregate node (build one partial, finalise it — bit-identical to
   composing agg^exp with the having-selection and the projection), and
   the cluster coordinator (merge one partial per shard, finalise the
   union).  Single-node and distributed grouped queries therefore run
   the very same finalisation code. *)

type slice = {
  s_texp : Time.t;
      (* the instant these members expire (for COUNT: the latest of
         them); [Inf] = never *)
  s_rows : int;  (* members in the slice *)
  s_nonnull : int;  (* members with a non-null aggregated attribute *)
  s_sum : Value.t;  (* SUM partial; [Null] when no non-null member *)
  s_fsum : float;  (* AVG numerator (non-numeric attrs contribute 0) *)
  s_min : Value.t;  (* MIN partial; [Null] when no non-null member *)
  s_max : Value.t;  (* MAX partial *)
}

type group = {
  key : Value.t list;  (* the GROUP BY attribute values *)
  slices : slice list;  (* ascending [s_texp], the immortal slice last *)
}

type t = group list

(* ---------- building a partial from one fragment ---------- *)

let empty_slice texp =
  { s_texp = texp;
    s_rows = 0;
    s_nonnull = 0;
    s_sum = Value.Null;
    s_fsum = 0.;
    s_min = Value.Null;
    s_max = Value.Null
  }

(* Componentwise accumulation.  The sum is null-aware ([Null] is the
   unit, mirroring how null attributes never contribute to agg^exp) and
   raises [Invalid_argument] on non-numeric operands exactly where
   [Aggregate.apply Sum] would. *)
let add_sum a b =
  match a, b with
  | Value.Null, v | v, Value.Null -> v
  | a, b -> Value.add a b

let pick keep a b =
  match a, b with
  | Value.Null, v | v, Value.Null -> v
  | a, b -> if keep (Value.compare b a) then b else a

let min_v = pick (fun c -> c < 0)
let max_v = pick (fun c -> c > 0)

let observe ~func slice value =
  let nonnull = not (Value.is_null value) in
  { slice with
    s_rows = slice.s_rows + 1;
    s_nonnull = (if nonnull then slice.s_nonnull + 1 else slice.s_nonnull);
    s_sum =
      (match func with
       | Aggregate.Sum _ when nonnull -> add_sum slice.s_sum value
       | _ -> slice.s_sum);
    s_fsum =
      (if nonnull then
         slice.s_fsum +. Option.value ~default:0. (Value.to_float value)
       else slice.s_fsum);
    s_min = (if nonnull then min_v slice.s_min value else slice.s_min);
    s_max = (if nonnull then max_v slice.s_max value else slice.s_max)
  }

(* In-module comparison of expiration times: the SUM/AVG/MIN/MAX row
   kernel compares texps on every row, and [Time.compare] is an
   out-of-line call wherever modules compile opaquely (the dev build's
   grouped SUM ran ~25% slower with it; EXPERIMENTS.md, vexec). *)
let[@inline] tcmp a b =
  match a, b with
  | Time.Fin x, Time.Fin y -> compare (x : int) y
  | Time.Fin _, Time.Inf -> -1
  | Time.Inf, Time.Fin _ -> 1
  | Time.Inf, Time.Inf -> 0

(* ---------- GROUP BY values ---------- *)

(* [Value.hash] and [Value.equal] with their [Int] case written out
   here, so an integer key is hashed and compared without a call (the
   dev build's grouped COUNT ran 20-30% slower calling [Value]'s;
   EXPERIMENTS.md, vexec).  They
   agree with [Value]'s on every input (±0.0 and every NaN payload
   included): a group here is exactly a group of the [Value.compare]
   order the partial is sorted by. *)
module Key = struct
  let[@inline] hash = function
    | Value.Int n ->
      let h = n * 0x2545F4914F6CDD1D in
      (h lxor (h lsr 32)) land max_int
    | v -> Value.hash v

  let[@inline] equal a b =
    match a, b with
    | Value.Int x, Value.Int y -> x = y
    | _ -> Value.equal a b

  let[@inline] mix h v = (h * 65599) + hash v

  let rec list_hash h = function
    | [] -> h
    | v :: vs -> list_hash (mix h v) vs

  let rec list_equal a b =
    match a, b with
    | [], [] -> true
    | x :: a, y :: b -> equal x y && list_equal a b
    | [], _ :: _ | _ :: _, [] -> false
end

let rec has_float = function
  | [] -> false
  | Value.Float _ :: _ -> true
  | (Value.Int _ | Value.Str _ | Value.Bool _ | Value.Null) :: vs -> has_float vs

(* ---------- the group table ---------- *)

(* One open-addressing table of groups.  [slots] (a power of two, at
   most half full) holds group ids, [-1] for an empty slot, probed
   linearly from the key's hash; a group's key, hash and state sit at
   its id in dense arrays, ids in opening order.  A batch row probes
   with its GROUP BY values read in place from the columns, so only a
   row that opens a group builds a key list; a shard partial's group
   probes with its key list.  Of compare-equal keys (0.0 and -0.0, say)
   a group carries the one seen last: only keys holding a [Float] can
   be compare-equal without being identical, so only they are
   rewritten on a hit. *)
type 'a table = {
  mutable slots : int array;
  mutable hashes : int array;
  mutable keys : Value.t list array;
  mutable data : 'a array;
  mutable n : int;  (* groups; ids [0 .. n-1] *)
  mutable floats : bool;  (* some key holds a [Float] *)
}

let new_table () =
  { slots = Array.make 16 (-1);
    hashes = [||];
    keys = [||];
    data = [||];
    n = 0;
    floats = false
  }

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to t.n - 1 do
    let s = ref (t.hashes.(id) land mask) in
    while slots.(!s) >= 0 do
      s := (!s + 1) land mask
    done;
    slots.(!s) <- id
  done;
  t.slots <- slots

(* Open a group with state [x] in the empty slot [s]. *)
let open_group t s h key x =
  let id = t.n in
  if id = Array.length t.data then begin
    let grow a fill =
      let b = Array.make (max 8 (2 * id)) fill in
      Array.blit a 0 b 0 id;
      b
    in
    t.hashes <- grow t.hashes 0;
    t.keys <- grow t.keys [];
    t.data <- grow t.data x
  end;
  t.hashes.(id) <- h;
  t.keys.(id) <- key;
  t.data.(id) <- x;
  t.n <- id + 1;
  t.slots.(s) <- id;
  if has_float key then t.floats <- true;
  if 2 * t.n > Array.length t.slots then rehash t

(* Probes answer the group's id, or [lnot s] for the empty slot [s]
   where the group would open. *)
let[@inline] next t s = (s + 1) land (Array.length t.slots - 1)

(* [Key.list_hash] and [Key.list_equal] of row [i]'s GROUP BY values
   ([gpos], 0-based columns), read in place. *)
let rec row_hash cols gpos i j h =
  if j = Array.length gpos then h
  else row_hash cols gpos i (j + 1) (Key.mix h cols.(gpos.(j)).(i))

let rec row_equal cols gpos i j = function
  | [] -> true
  | k :: ks -> Key.equal cols.(gpos.(j)).(i) k && row_equal cols gpos i (j + 1) ks

let rec row_key cols gpos i j =
  if j = Array.length gpos then []
  else cols.(gpos.(j)).(i) :: row_key cols gpos i (j + 1)

let rec probe_row t cols gpos i h s =
  let id = t.slots.(s) in
  if id < 0 then lnot s
  else if t.hashes.(id) = h && row_equal cols gpos i 0 t.keys.(id) then id
  else probe_row t cols gpos i h (next t s)

let[@inline] find_row t cols gpos i =
  let h = row_hash cols gpos i 0 0 in
  probe_row t cols gpos i h (h land (Array.length t.slots - 1))

(* Row [i] opens its group, with state [x], in the empty slot [s]. *)
let open_row t cols gpos i s x =
  open_group t s (row_hash cols gpos i 0 0) (row_key cols gpos i 0) x

(* A hit on group [id] by row [i]: the group takes the row's key when
   it could differ (a [Float] in it). *)
let[@inline] seen_row t id cols gpos i =
  if t.floats && has_float t.keys.(id) then t.keys.(id) <- row_key cols gpos i 0

let rec probe_key t key h s =
  let id = t.slots.(s) in
  if id < 0 then lnot s
  else if t.hashes.(id) = h && Key.list_equal key t.keys.(id) then id
  else probe_key t key h (next t s)

let key_hash key = Key.list_hash 0 key

let find_key t key =
  let h = key_hash key in
  probe_key t key h (h land (Array.length t.slots - 1))

(* The groups in ascending key order, their ids sorted once: the
   partial (and so its wire encoding) does not depend on the table's
   layout or the rows' order. *)
let sorted_groups t ~slices =
  let ids = Array.init t.n Fun.id in
  Array.stable_sort
    (fun a b -> List.compare Value.compare t.keys.(a) t.keys.(b))
    ids;
  Array.fold_right
    (fun id gs -> { key = t.keys.(id); slices = slices t.data.(id) } :: gs)
    ids []

(* ---------- group state ---------- *)

(* A COUNT group: its earliest member texp, the members expiring
   exactly then, its latest member texp and its row count, updated in
   place — so a row costs its probe plus a few integer comparisons, in
   any order, and allocates nothing.  The two times are held unboxed,
   as an int and a finiteness flag, so that updating them stores no
   pointer.  The group leaves as [(first, at_first)] followed, when
   some member outlives [first], by [(last, rows - at_first)]. *)
type counter = {
  mutable first : int;  (* when [first_fin]; else the earliest is [Inf] *)
  mutable first_fin : bool;
  mutable at_first : int;  (* members expiring exactly at the earliest *)
  mutable last : int;  (* when [last_fin]; else the latest is [Inf] *)
  mutable last_fin : bool;
  mutable rows : int;  (* every member *)
}

(* [n] members expire at [texp]: it may be the group's new earliest. *)
let[@inline] count_first k texp n =
  match texp with
  | Time.Fin x ->
    if (not k.first_fin) || x < k.first then begin
      k.first <- x;
      k.first_fin <- true;
      k.at_first <- n
    end
    else if x = k.first then k.at_first <- k.at_first + n
  | Time.Inf -> if not k.first_fin then k.at_first <- k.at_first + n

(* Some member expires at [texp]: it may be the group's new latest. *)
let[@inline] count_last k texp =
  match texp with
  | Time.Fin x -> if k.last_fin && x > k.last then k.last <- x
  | Time.Inf -> k.last_fin <- false

(* A group of [rows] members, [at_first] of them expiring at [first]
   and the rest up to [last]. *)
let new_counter ~first ~at_first ~last ~rows =
  let k =
    { first = 0;
      first_fin = false;
      at_first = 0;
      last = min_int;
      last_fin = true;
      rows
    }
  in
  count_first k first at_first;
  count_last k last;
  k

let counter_slices k =
  let slice fin x rows =
    { (empty_slice (if fin then Time.Fin x else Time.Inf)) with s_rows = rows }
  in
  if k.at_first = k.rows then [ slice k.first_fin k.first k.rows ]
  else
    [ slice k.first_fin k.first k.at_first;
      slice k.last_fin k.last (k.rows - k.at_first) ]

(* A SUM, AVG, MIN or MAX group keeps its slices in an array ascending
   by expiration time: a texp-ordered row stream (a scan's sorted
   chunks, then the run's sorted insert buffer) only ever updates the
   newest slice or appends one after it.  A row that arrives out of
   order — the buffer's restart, index scans, joins, [of_relation]'s
   tuple order — binary-searches the array and folds into its slice
   when one exists; a row opening a new slice instead waits in the
   group's pending buffer.  The buffer is stable-sorted and merged into
   the array once it holds as many rows as the array has slices (and
   when the partial is taken), so an out-of-order row costs O(log s)
   amortised for a group of [s] slices, never an O(s) shift.

   Every row still lands in its (key, texp) slice in arrival order, so
   float sums are bit-identical to a slice-by-slice fold of the same
   stream: a pending texp has no slice in the array (it would have been
   folded there) and lies below the newest slice, which only grows, so
   no row of that texp can reach the array before the merge, and the
   stable sort keeps the pending rows' own order. *)
type cell = {
  mutable cslices : slice array;  (* ascending [s_texp]; [clen] in use *)
  mutable clen : int;
  mutable pending : (Time.t * Value.t) array;
      (* out-of-order rows opening new slices, in arrival order; [plen]
         in use, every texp below the newest slice's *)
  mutable plen : int;
}

let new_cell slices =
  { cslices = slices; clen = Array.length slices; pending = [||]; plen = 0 }

let append_slice c s =
  if c.clen = Array.length c.cslices then begin
    let grown = Array.make (max 4 (2 * c.clen)) s in
    Array.blit c.cslices 0 grown 0 c.clen;
    c.cslices <- grown
  end;
  c.cslices.(c.clen) <- s;
  c.clen <- c.clen + 1

(* Merge the pending rows into the slice array: one stable sort, one
   linear merge.  No pending texp has a slice in the array yet. *)
let flush_pending ~func c =
  if c.plen > 0 then begin
    let rows = Array.sub c.pending 0 c.plen in
    Array.stable_sort (fun (a, _) (b, _) -> Time.compare a b) rows;
    let old = c.cslices and old_len = c.clen in
    c.cslices <- Array.make (old_len + c.plen) old.(0);
    c.clen <- 0;
    let i = ref 0 and j = ref 0 in
    while !j < Array.length rows do
      let texp = fst rows.(!j) in
      while !i < old_len && Time.compare old.(!i).s_texp texp < 0 do
        append_slice c old.(!i);
        incr i
      done;
      let s = ref (empty_slice texp) in
      while !j < Array.length rows && Time.compare (fst rows.(!j)) texp = 0 do
        s := observe ~func !s (snd rows.(!j));
        incr j
      done;
      append_slice c !s
    done;
    Array.blit old !i c.cslices c.clen (old_len - !i);
    c.clen <- c.clen + (old_len - !i);
    c.plen <- 0
  end

let push_pending ~func c texp value =
  if c.plen = Array.length c.pending then begin
    let grown = Array.make (max 8 (2 * c.plen)) (texp, value) in
    Array.blit c.pending 0 grown 0 c.plen;
    c.pending <- grown
  end;
  c.pending.(c.plen) <- (texp, value);
  c.plen <- c.plen + 1;
  if c.plen >= max 8 c.clen then flush_pending ~func c

(* Fold [value] into the cell's slice for [texp]. *)
let observe_cell ~func c texp value =
  let last = c.clen - 1 in
  let order = tcmp c.cslices.(last).s_texp texp in
  if order = 0 then c.cslices.(last) <- observe ~func c.cslices.(last) value
  else if order < 0 then append_slice c (observe ~func (empty_slice texp) value)
  else begin
    (* The first slice at or after [texp]: the newest is after it. *)
    let lo = ref 0 and hi = ref last in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if tcmp c.cslices.(mid).s_texp texp < 0 then lo := mid + 1 else hi := mid
    done;
    let i = !lo in
    if tcmp c.cslices.(i).s_texp texp = 0 then
      c.cslices.(i) <- observe ~func c.cslices.(i) value
    else push_pending ~func c texp value
  end

let cell_slices c =
  let rec from i acc =
    if i < 0 then acc else from (i - 1) (c.cslices.(i) :: acc)
  in
  from (c.clen - 1) []

(* ---------- accumulation ---------- *)

type groups =
  | Counts of counter table
  | Slices of {
      attr_pos : int;  (* the aggregated attribute *)
      cells : cell table;
    }

type acc = {
  gpos : int array;  (* the GROUP BY columns, 0-based *)
  func : Aggregate.func;
  groups : groups;
}

let new_groups func =
  match Aggregate.func_attr func with
  | None -> Counts (new_table ())
  | Some attr_pos -> Slices { attr_pos; cells = new_table () }

let create_acc ~group ~func =
  { gpos = Array.of_list (List.map (fun g -> g - 1) group);
    func;
    groups = new_groups func
  }

(* The row kernels: one loop over the selected rows per batch, each row
   a probe on its GROUP BY values in place and an update of its
   group. *)
let observe_batch acc (b : Batch.t) =
  let cols = b.cols and texps = b.texps and gpos = acc.gpos and sel = b.sel in
  let len =
    match sel with
    | None -> Array.length texps
    | Some s -> Array.length s
  in
  match acc.groups with
  | Counts t ->
    for j = 0 to len - 1 do
      let i =
        match sel with
        | None -> j
        | Some s -> s.(j)
      in
      let texp = texps.(i) in
      let id = find_row t cols gpos i in
      if id < 0 then
        open_row t cols gpos i (lnot id)
          (new_counter ~first:texp ~at_first:1 ~last:texp ~rows:1)
      else begin
        seen_row t id cols gpos i;
        let k = t.data.(id) in
        count_first k texp 1;
        count_last k texp;
        k.rows <- k.rows + 1
      end
    done
  | Slices { attr_pos; cells = t } ->
    let func = acc.func and values = cols.(attr_pos - 1) in
    for j = 0 to len - 1 do
      let i =
        match sel with
        | None -> j
        | Some s -> s.(j)
      in
      let texp = texps.(i) and value = values.(i) in
      let id = find_row t cols gpos i in
      if id < 0 then
        open_row t cols gpos i (lnot id)
          (new_cell [| observe ~func (empty_slice texp) value |])
      else begin
        seen_row t id cols gpos i;
        observe_cell ~func t.data.(id) texp value
      end
    done

let of_groups = function
  | Counts t -> sorted_groups t ~slices:counter_slices
  | Slices { cells; _ } -> sorted_groups cells ~slices:cell_slices

let of_acc acc =
  (match acc.groups with
   | Counts _ -> ()
   | Slices { cells; _ } ->
     for id = 0 to cells.n - 1 do
       flush_pending ~func:acc.func cells.data.(id)
     done);
  of_groups acc.groups

let of_relation ~group ~func relation =
  let acc = create_acc ~group ~func in
  List.iter (observe_batch acc) (Batch.of_relation relation);
  of_acc acc

(* ---------- merging partials (disjoint fragments) ---------- *)

let merge_slices a b =
  { s_texp = a.s_texp;
    s_rows = a.s_rows + b.s_rows;
    s_nonnull = a.s_nonnull + b.s_nonnull;
    s_sum = add_sum a.s_sum b.s_sum;
    s_fsum = a.s_fsum +. b.s_fsum;
    s_min = min_v a.s_min b.s_min;
    s_max = max_v a.s_max b.s_max
  }

let merge_slice_lists xs ys =
  let rec go xs ys =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
      let c = Time.compare x.s_texp y.s_texp in
      if c < 0 then x :: go xs' ys
      else if c > 0 then y :: go xs ys'
      else merge_slices x y :: go xs' ys'
  in
  go xs ys

(* A COUNT group's slices (ascending, the first [s0]) folded into
   counter [k], or into a new one: the first slice holds exactly the
   members expiring at the earliest texp, the last slice's texp is the
   latest. *)
let count_slices k s0 slices =
  let last, rows =
    List.fold_left (fun (_, rows) s -> (s.s_texp, rows + s.s_rows)) (s0.s_texp, 0) slices
  in
  match k with
  | None -> new_counter ~first:s0.s_texp ~at_first:s0.s_rows ~last ~rows
  | Some k ->
    count_first k s0.s_texp s0.s_rows;
    count_last k last;
    k.rows <- k.rows + rows;
    k

(* One partial's group into the table: the key probes as a list, and
   the group takes it (the last seen).  A COUNT group's slices fold into
   its counter, so the merge is condensed to at most two slices again;
   any other group's slice list merges linearly into its cell (both
   ascending). *)
let merge_group groups { key; slices } =
  match groups with
  | Counts t ->
    (match slices with
     | [] -> ()
     | s0 :: _ ->
       let id = find_key t key in
       if id < 0 then open_group t (lnot id) (key_hash key) key (count_slices None s0 slices)
       else begin
         t.keys.(id) <- key;
         ignore (count_slices (Some t.data.(id)) s0 slices)
       end)
  | Slices { cells = t; _ } ->
    let id = find_key t key in
    if id < 0 then
      open_group t (lnot id) (key_hash key) key (new_cell (Array.of_list slices))
    else begin
      let c = t.data.(id) in
      let merged = Array.of_list (merge_slice_lists (cell_slices c) slices) in
      t.keys.(id) <- key;
      c.cslices <- merged;
      c.clen <- Array.length merged
    end

(* Merging shares the accumulation's table: partials fold in one after
   another, so [merge_all] over k partials is one pass, with the same
   left-to-right combination order a pairwise fold would take. *)
let merge_all ~func partials =
  let groups = new_groups func in
  List.iter (List.iter (merge_group groups)) partials;
  of_groups groups

let merge_counts groups =
  List.fold_left
    (fun acc { key; slices } ->
      match slices with
      | [] -> acc
      | s0 :: _ -> Some (key, count_slices (Option.map snd acc) s0 slices))
    None groups
  |> Option.map (fun (key, k) -> { key; slices = counter_slices k })

(* ---------- finalisation (the exact strategy) ---------- *)

(* The aggregate value over a set of slices — [apply f] recomputed from
   the condensed form. *)
let value_of ~func total =
  match (func : Aggregate.func) with
  | Aggregate.Count -> Value.Int total.s_rows
  | Aggregate.Sum _ -> total.s_sum
  | Aggregate.Min _ -> total.s_min
  | Aggregate.Max _ -> total.s_max
  | Aggregate.Avg _ ->
    if total.s_nonnull = 0 then Value.Null
    else Value.Float (total.s_fsum /. float_of_int total.s_nonnull)

(* Suffix totals: [suffix.(i)] condenses slices [i..]; the change-point
   scan walks them without re-folding per expiry. *)
let suffix_totals slices =
  List.fold_right
    (fun slice acc ->
      match acc with
      | [] -> [ slice ]
      | total :: _ -> merge_slices slice total :: acc)
    slices []

type finalized = {
  f_key : Value.t list;
  f_value : Value.t;
  f_nu : Time.t;  (* Equation (9)'s change point *)
  f_empties : Time.t;  (* when the whole partition has expired *)
}

(* The group empties at its last slice's texp (ascending order: the
   max). *)
let rec last_texp = function
  | [] -> Time.Inf
  | [ last ] -> last.s_texp
  | _ :: rest -> last_texp rest

(* Exactly [Aggregate.nu]: the first finite expiry at which the value
   over what remains differs from the value at tau (an emptied partition
   always counts as a change), [Inf] when the value never changes. *)
let finalize_group ~func { key; slices } =
  match suffix_totals slices with
  | [] -> None
  | total :: _ as suffixes ->
    if total.s_rows = 0 then None
    else begin
      let v0 = value_of ~func total in
      (* [suffixes.(i)] condenses what is still live after the expiry of
         slice [i-1]; the suffix after the *last* slice is empty, and an
         emptying partition always counts as a change. *)
      let rec change_point = function
        | [] -> Time.Inf
        | [ last ] ->
          if Time.is_infinite last.s_texp then Time.Inf else last.s_texp
        | slice :: (next :: _ as rest) ->
          if Time.is_infinite slice.s_texp then Time.Inf
          else if not (Value.equal v0 (value_of ~func next)) then slice.s_texp
          else change_point rest
      in
      Some
        { f_key = key;
          f_value = v0;
          f_nu = change_point suffixes;
          f_empties = last_texp slices
        }
    end

(* A row's expiration under the exact strategy, derived from the slice
   form: agg^exp assigns each member row [min(nu, texp(member))]
   (Equation (9) capped by the member, see Ops.aggregate); collapsing
   the partition to one output row under the projection's union rule
   takes the max over members, i.e. [min(nu, empties)]. *)
let row_texp f = Time.min f.f_nu f.f_empties

(* Where the group's value at child position [j] comes from, for the
   positions the HAVING predicate and the projection may mention: [-1]
   for the aggregate at [child_arity + 1], [k >= 0] for the [k]-th GROUP
   BY value.  Other positions have no single per-group value ([-2],
   read as [Null]) — the guard in the planner (and the SQL lowering
   rules) exclude them. *)
let source ~group ~child_arity j =
  if j = child_arity + 1 then -1
  else
    let rec find k = function
      | [] -> -2
      | g :: gs -> if g = j then k else find (k + 1) gs
    in
    find 0 group

let read f src =
  let rec nth k = function
    | [] -> Value.Null
    | v :: vs -> if k = 0 then v else nth (k - 1) vs
  in
  if src = -1 then f.f_value else if src < 0 then Value.Null else nth src f.f_key

(* The tuple of [f]'s values at the positions [sources] reads. *)
let row_of sources f =
  Tuple.init ~arity:(Array.length sources) (fun j -> read f sources.(j - 1))

(* One group's share of the grouped query's answer: its output row when
   HAVING keeps it, texp'd by [row_texp], and its change point when that
   outruns the partition's own expiry ([Inf] otherwise) — the HAVING
   selection and the projection both preserve their child's texp(e), so
   the invalidation folds over every partition, kept or not. *)
let finalizer ~group ~func ~child_arity ?having ~projection =
  let sources =
    Array.of_list (List.map (source ~group ~child_arity) projection)
  in
  let kept =
    match having with
    | None -> fun _ -> true
    | Some p ->
      let full =
        Array.init (child_arity + 1) (fun i ->
            source ~group ~child_arity (i + 1))
      in
      fun f -> Predicate.eval p (row_of full f)
  in
  fun g ->
    match finalize_group ~func g with
    | None -> (None, Time.Inf)
    | Some f ->
      ( (if kept f then Some (row_of sources f, row_texp f) else None),
        if Time.compare f.f_nu f.f_empties < 0 then f.f_nu else Time.Inf )

let distinct_rows ~group ~projection = List.for_all (fun g -> List.mem g projection) group

let finalize ~group ~func ~child_arity ?having ~projection partial =
  let output = finalizer ~group ~func ~child_arity ?having ~projection in
  List.fold_left
    (fun (relation, invalidation) g ->
      let row, change = output g in
      ( Option.fold row ~none:relation ~some:(fun (tuple, texp) ->
            Relation.add tuple ~texp relation),
        Time.min invalidation change ))
    (Relation.empty ~arity:(List.length projection), Time.Inf)
    partial

(* ---------- standing COUNT state ---------- *)

module Tmap = Map.Make (Time)

(* A group filed under its earliest member texp. *)
module Firsts = Set.Make (struct
  type t = Time.t * Value.t list

  let compare (a, k) (b, l) =
    match Time.compare a b with
    | 0 -> List.compare Value.compare k l
    | c -> c
end)

type members = {
  m_rows : int;
  m_texps : int Tmap.t;  (* texp -> members expiring then *)
}

type standing = {
  members : members Group_map.t;
  firsts : Firsts.t;
}

let standing_empty = { members = Group_map.empty; firsts = Firsts.empty }
let first m = fst (Tmap.min_binding m.m_texps)

(* Group [key]'s members go from [before] to [after]; the group stays
   filed where it is while its earliest texp does. *)
let refile st key before after =
  match before, after with
  | Some b, Some a when Time.equal (first b) (first a) ->
    { st with members = Group_map.add key a st.members }
  | _ ->
    let firsts =
      Option.fold before ~none:st.firsts ~some:(fun m -> Firsts.remove (first m, key) st.firsts)
    in
    { members =
        (match after with
         | Some a -> Group_map.add key a st.members
         | None -> Group_map.remove key st.members);
      firsts = Option.fold after ~none:firsts ~some:(fun m -> Firsts.add (first m, key) firsts)
    }

let standing_change st key texp n =
  let before = Group_map.find_opt key st.members in
  let m = Option.value before ~default:{ m_rows = 0; m_texps = Tmap.empty } in
  let c = n + Option.value (Tmap.find_opt texp m.m_texps) ~default:0 in
  let m_texps = if c = 0 then Tmap.remove texp m.m_texps else Tmap.add texp c m.m_texps in
  refile st key before
    (if m.m_rows + n = 0 then None else Some { m_rows = m.m_rows + n; m_texps })

let standing_expire st tau =
  let rec go st changed =
    match Firsts.min_elt_opt st.firsts with
    | Some (texp, key) when Time.(texp <= tau) ->
      let m = Option.get (Group_map.find_opt key st.members) in
      let below, at, later = Tmap.split tau m.m_texps in
      let gone = Tmap.fold (fun _ c n -> c + n) below (Option.value at ~default:0) in
      go
        (refile st key (Some m)
           (if Tmap.is_empty later then None
            else Some { m_rows = m.m_rows - gone; m_texps = later }))
        (key :: changed)
    | _ -> (st, changed)
  in
  go st []

let standing_next st =
  Option.fold (Firsts.min_elt_opt st.firsts) ~none:Time.Inf ~some:fst

let standing_groups st = Group_map.cardinal st.members

let group_of key m =
  let first, at_first = Tmap.min_binding m.m_texps in
  let last, _ = Tmap.max_binding m.m_texps in
  { key; slices = counter_slices (new_counter ~first ~at_first ~last ~rows:m.m_rows) }

let standing_group st key = Option.map (group_of key) (Group_map.find_opt key st.members)

let standing_partial st =
  List.rev (Group_map.fold (fun key m gs -> group_of key m :: gs) st.members [])

(* A group whose members record is the same physical value in both
   stands unchanged, and so does every subtree the two maps share. *)
let standing_diff before after =
  List.map
    (function
      | key, Some m -> group_of key m
      | key, None -> { key; slices = [] })
    (Group_map.diff before.members after.members)
