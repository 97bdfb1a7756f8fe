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

(* The accumulation form: one hash table of groups, keyed by the GROUP
   BY values.  [Value.equal] and [Value.hash] agree with the
   [Value.compare] order the partial is finally sorted by (±0.0 and
   every NaN payload included), so a group here is exactly a group
   there.  Of compare-equal keys (0.0 and -0.0, say) a group carries
   the one seen last. *)
module Groups = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash = List.fold_left (fun h v -> (h * 65599) + Value.hash v) 0
end)

(* A COUNT group: four fields updated in place, so a row costs its
   hash lookup plus a few integer and time comparisons, in any order,
   and allocates no slice.  [of_acc] emits it as [(first, at_first)]
   followed, when some member outlives [first], by
   [(last, rows - at_first)]. *)
type counter = {
  mutable kkey : Value.t list;  (* the latest row's key *)
  mutable first : Time.t;  (* the earliest member texp *)
  mutable at_first : int;  (* members expiring exactly at [first] *)
  mutable last : Time.t;  (* the latest member texp *)
  mutable rows : int;  (* every member *)
}

(* Fold [rows] members of group [key] into its counter, [at_first] of
   them expiring at [first] and the rest up to [last]. *)
let count_into counters key ~first ~at_first ~last ~rows =
  match Groups.find counters key with
  | exception Not_found ->
    Groups.add counters key { kkey = key; first; at_first; last; rows }
  | k ->
    k.kkey <- key;
    let c = Time.compare first k.first in
    if c < 0 then begin
      k.first <- first;
      k.at_first <- at_first
    end
    else if c = 0 then k.at_first <- k.at_first + at_first;
    if Time.(last > k.last) then k.last <- last;
    k.rows <- k.rows + rows

let counter_slices k =
  let slice texp rows = { (empty_slice texp) with s_rows = rows } in
  if k.at_first = k.rows then [ slice k.first k.rows ]
  else [ slice k.first k.at_first; slice k.last (k.rows - k.at_first) ]

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
  mutable ckey : Value.t list;  (* the latest row's key *)
  mutable cslices : slice array;  (* ascending [s_texp]; [clen] in use *)
  mutable clen : int;
  mutable pending : (Time.t * Value.t) array;
      (* out-of-order rows opening new slices, in arrival order; [plen]
         in use, every texp below the newest slice's *)
  mutable plen : int;
}

type groups =
  | Counts of counter Groups.t
  | Slices of {
      attr_pos : int;  (* the aggregated attribute *)
      cells : cell Groups.t;
    }

type acc = {
  group : int list;
  func : Aggregate.func;
  groups : groups;
}

let new_groups func =
  match Aggregate.func_attr func with
  | None -> Counts (Groups.create 64)
  | Some attr_pos -> Slices { attr_pos; cells = Groups.create 64 }

let create_acc ~group ~func = { group; func; groups = new_groups func }

let new_cell key slices =
  { ckey = key;
    cslices = slices;
    clen = Array.length slices;
    pending = [||];
    plen = 0
  }

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
      while !i < old_len && Time.(old.(!i).s_texp < texp) do
        append_slice c old.(!i);
        incr i
      done;
      let s = ref (empty_slice texp) in
      while !j < Array.length rows && Time.equal (fst rows.(!j)) texp do
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
  let newest = c.cslices.(last).s_texp in
  if Time.equal newest texp then
    c.cslices.(last) <- observe ~func c.cslices.(last) value
  else if Time.(newest < texp) then
    append_slice c (observe ~func (empty_slice texp) value)
  else begin
    (* The first slice at or after [texp]: the newest is after it. *)
    let lo = ref 0 and hi = ref last in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Time.(c.cslices.(mid).s_texp < texp) then lo := mid + 1 else hi := mid
    done;
    let i = !lo in
    if Time.equal c.cslices.(i).s_texp texp then
      c.cslices.(i) <- observe ~func c.cslices.(i) value
    else push_pending ~func c texp value
  end

let observe_acc acc ~attr ~texp =
  let key = List.map attr acc.group in
  match acc.groups with
  | Counts counters ->
    count_into counters key ~first:texp ~at_first:1 ~last:texp ~rows:1
  | Slices { attr_pos; cells } ->
    let value = attr attr_pos in
    (match Groups.find cells key with
     | c ->
       c.ckey <- key;
       observe_cell ~func:acc.func c texp value
     | exception Not_found ->
       Groups.add cells key
         (new_cell key [| observe ~func:acc.func (empty_slice texp) value |]))

let cell_slices c =
  let rec from i acc =
    if i < 0 then acc else from (i - 1) (c.cslices.(i) :: acc)
  in
  from (c.clen - 1) []

(* The groups in ascending key order, sorted once: the partial (and so
   its wire encoding) does not depend on the hash table's layout. *)
let sorted_groups groups ~key ~slices =
  Groups.fold (fun _ g gs -> g :: gs) groups []
  |> List.sort (fun a b -> List.compare Value.compare (key a) (key b))
  |> List.map (fun g -> { key = key g; slices = slices g })

let of_groups = function
  | Counts counters ->
    sorted_groups counters ~key:(fun k -> k.kkey) ~slices:counter_slices
  | Slices { cells; _ } ->
    sorted_groups cells ~key:(fun c -> c.ckey) ~slices:cell_slices

let of_acc acc =
  (match acc.groups with
   | Counts _ -> ()
   | Slices { cells; _ } ->
     Groups.iter (fun _ c -> flush_pending ~func:acc.func c) cells);
  of_groups acc.groups

let of_relation ~group ~func relation =
  let acc = create_acc ~group ~func in
  Relation.iter
    (fun t texp -> observe_acc acc ~attr:(Tuple.attr t) ~texp)
    relation;
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

(* A COUNT group's slices (ascending) fold into its counter: the first
   slice holds exactly the members expiring at the earliest texp, the
   last slice's texp is the latest. *)
let count_slices counters key = function
  | [] -> ()
  | s0 :: _ as slices ->
    let last, rows =
      List.fold_left
        (fun (_, rows) s -> (s.s_texp, rows + s.s_rows))
        (s0.s_texp, 0) slices
    in
    count_into counters key ~first:s0.s_texp ~at_first:s0.s_rows ~last ~rows

(* Merging shares the accumulation's table: partials fold in one
   after another, so [merge_all] over k partials is one pass, with the
   same left-to-right combination order a pairwise fold would take.  A
   COUNT group lands in its counter, so the merge is condensed to at
   most two slices again; any other group's slice list merges linearly
   into its cell (both ascending). *)
let merge_all ~func partials =
  let groups = new_groups func in
  (match groups with
   | Counts counters ->
     List.iter
       (List.iter (fun g -> count_slices counters g.key g.slices))
       partials
   | Slices { cells; _ } ->
     List.iter
       (List.iter (fun g ->
            match Groups.find cells g.key with
            | exception Not_found ->
              Groups.add cells g.key (new_cell g.key (Array.of_list g.slices))
            | c ->
              let merged =
                Array.of_list (merge_slice_lists (cell_slices c) g.slices)
              in
              c.ckey <- g.key;
              c.cslices <- merged;
              c.clen <- Array.length merged))
       partials);
  of_groups groups

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
      let nu = change_point suffixes in
      let empties =
        match List.rev slices with
        | [] -> Time.Inf
        | last :: _ -> last.s_texp  (* ascending order: the max *)
      in
      Some { f_key = key; f_value = v0; f_nu = nu; f_empties = empties }
    end

(* A row's expiration under the exact strategy, derived from the slice
   form: agg^exp assigns each member row [min(nu, texp(member))]
   (Equation (9) capped by the member, see Ops.aggregate); collapsing
   the partition to one output row under the projection's union rule
   takes the max over members, i.e. [min(nu, empties)]. *)
let row_texp f = Time.min f.f_nu f.f_empties

(* The group's values at the positions the HAVING predicate and the
   projection may mention: a GROUP BY attribute (by its position in the
   child) or the aggregate at [child_arity + 1].  Positions outside that
   set have no single per-group value — the guard in the planner (and
   the SQL lowering rules) exclude them. *)
let position_value ~group ~child_arity f j =
  if j = child_arity + 1 then f.f_value
  else
    let rec find gs ks =
      match gs, ks with
      | g :: _, k :: _ when g = j -> k
      | _ :: gs', _ :: ks' -> find gs' ks'
      | _, _ -> Value.Null
    in
    find group f.f_key

let finalize ~group ~func ~child_arity ?having ~projection partial =
  let finalized = List.filter_map (finalize_group ~func) partial in
  (* The materialisation invalidates when some partition's rows vanish
     (at nu) while members outlive them — computed over *every*
     partition: the HAVING selection and the projection both preserve
     their child's texp(e). *)
  let invalidation =
    List.fold_left
      (fun acc f ->
        if Time.(f.f_nu < f.f_empties) then Time.min acc f.f_nu else acc)
      Time.Inf finalized
  in
  let kept =
    match having with
    | None -> finalized
    | Some p ->
      let full_arity = child_arity + 1 in
      List.filter
        (fun f ->
          let row =
            List.init full_arity (fun i ->
                position_value ~group ~child_arity f (i + 1))
          in
          Predicate.eval p (Tuple.of_list row))
        finalized
  in
  let relation =
    List.fold_left
      (fun acc f ->
        let tuple =
          Tuple.of_list
            (List.map (position_value ~group ~child_arity f) projection)
        in
        Relation.add tuple ~texp:(row_texp f) acc)
      (Relation.empty ~arity:(List.length projection))
      kept
  in
  (relation, invalidation)
