open Expirel_core
open Expirel_storage

(* ---------- physical join kernels ---------- *)

(* Streaming select-over-product: same pairs, predicate and texp rule as
   [Ops.join p = select p (product l r)] (Equations (2) and (5)), but
   without materialising the product — O(|l|·|r|) time, O(out) space. *)
let nested_loop pred left right =
  let arity = Relation.arity left + Relation.arity right in
  Relation.fold
    (fun l e_l acc ->
      Relation.fold
        (fun r e_r acc ->
          let t = Tuple.concat l r in
          if Predicate.eval pred t then
            Relation.add t ~texp:(Time.min e_l e_r) acc
          else acc)
        right acc)
    left
    (Relation.empty ~arity)

(* Hash-join key normalisation.  Bucket equality must refine the
   predicate's equality ([Value.cmp]): values cmp considers equal must
   land in the same bucket (misses lose result rows), while collisions
   are harmless because the full predicate is re-verified per candidate.
   cmp coerces Int-vs-Float numerically, so both map to Float keys; Null
   compares equal to nothing (itself included), so Null-keyed tuples
   cannot satisfy an equality conjunct and are dropped outright.  NaN is
   the one value where structural hashing diverges the other way (cmp
   says NaN = NaN, generic equality says otherwise): those rare tuples
   take a per-tuple nested-loop fallback instead. *)
type key_class =
  | Key of Value.t list
  | Dead  (* a Null key attribute: no equality conjunct can hold *)
  | Fallback  (* a NaN key attribute: hashing would miss cmp-equal pairs *)

(* [get] is a 1-based attribute accessor — a tuple's [Tuple.attr] on the
   streaming path, a batch row's column accessor on the vectorized one,
   so both paths share one normalisation. *)
let key_of_cols get cols =
  let rec go acc = function
    | [] -> Key (List.rev acc)
    | c :: rest ->
      (match get c with
       | Value.Null -> Dead
       | Value.Int n -> go (Value.Float (float_of_int n) :: acc) rest
       | Value.Float f when Float.is_nan f -> Fallback
       | v -> go (v :: acc) rest)
  in
  go [] cols

let key_of tuple cols = key_of_cols (Tuple.attr tuple) cols

let hash_join ~pairs ~pred left right =
  let arity = Relation.arity left + Relation.arity right in
  let left_cols = List.map fst pairs and right_cols = List.map snd pairs in
  let table = Hashtbl.create (max 16 (2 * Relation.cardinal right)) in
  Relation.iter
    (fun s e_s ->
      match key_of s right_cols with
      | Key k -> Hashtbl.add table k (s, e_s)
      | Dead | Fallback -> ())
    right;
  let emit l e_l acc (s, e_s) =
    let t = Tuple.concat l s in
    if Predicate.eval pred t then Relation.add t ~texp:(Time.min e_l e_s) acc
    else acc
  in
  Relation.fold
    (fun l e_l acc ->
      match key_of l left_cols with
      | Dead -> acc
      | Key k -> List.fold_left (emit l e_l) acc (Hashtbl.find_all table k)
      | Fallback ->
        Relation.fold (fun s e_s acc -> emit l e_l acc (s, e_s)) right acc)
    left
    (Relation.empty ~arity)

(* ---------- merge kernels ---------- *)

(* Relations are ordered maps, so [to_list] is sorted by [Tuple.compare]
   with distinct keys: set operations become one linear merge instead of
   per-tuple searches of the other side. *)
let merge ~left_only ~right_only ~both left right =
  let arity = Relation.arity left in
  let rec go xs ys acc =
    match xs, ys with
    | [], ys -> List.fold_left (fun acc (t, e) -> right_only t e acc) acc ys
    | xs, [] -> List.fold_left (fun acc (t, e) -> left_only t e acc) acc xs
    | ((tx, ex) :: xs' as xs), ((ty, ey) :: ys' as ys) ->
      let c = Tuple.compare tx ty in
      if c < 0 then go xs' ys (left_only tx ex acc)
      else if c > 0 then go xs ys' (right_only ty ey acc)
      else go xs' ys' (both tx ex ey acc)
  in
  go (Relation.to_list left) (Relation.to_list right)
    (Relation.empty ~arity)

let keep t e acc = Relation.add t ~texp:e acc
let skip _ _ acc = acc

let merge_union =
  merge ~left_only:keep ~right_only:keep ~both:(fun t e_l e_r acc ->
      Relation.add t ~texp:(Time.max e_l e_r) acc)

let merge_intersect =
  merge ~left_only:skip ~right_only:skip ~both:(fun t e_l e_r acc ->
      Relation.add t ~texp:(Time.min e_l e_r) acc)

let merge_diff =
  merge ~left_only:keep ~right_only:skip ~both:(fun _ _ _ acc -> acc)

(* ---------- the vectorized kernels ---------- *)

(* Hash join over batches: same key classes, same [Value.cmp]-refining
   normalisation and same full-predicate re-verification as
   [hash_join], but the build and probe loops run over flat column
   arrays and the output accumulates into column buffers instead of a
   tuple map.  Coinciding output rows (possible only below a vectorized
   projection) merge at the materialise boundary, with which every
   kernel here commutes. *)
let batch_hash_join ~pairs ~pred ~left_arity ~right_arity lbs rbs =
  let kernel = Predicate.compile pred in
  let left_cols = List.map fst pairs and right_cols = List.map snd pairs in
  let table = Hashtbl.create 64 in
  (* NaN-keyed probes fall back to scanning every build row, exactly
     like the streaming kernel's per-tuple nested loop over [right]. *)
  let all_rights = ref [] in
  List.iter
    (fun b ->
      Batch.fold_rows b ~init:() ~f:(fun () get texp ->
          let row = Array.init right_arity (fun j -> get (j + 1)) in
          all_rights := (row, texp) :: !all_rights;
          match key_of_cols get right_cols with
          | Key k -> Hashtbl.add table k (row, texp)
          | Dead | Fallback -> ()))
    rbs;
  let out = Batch.Builder.create ~arity:(left_arity + right_arity) in
  let emit lget e_l (row, e_s) =
    let get j = if j <= left_arity then lget j else row.(j - left_arity - 1) in
    if kernel get then Batch.Builder.add out get (Time.min e_l e_s)
  in
  List.iter
    (fun b ->
      Batch.fold_rows b ~init:() ~f:(fun () lget e_l ->
          match key_of_cols lget left_cols with
          | Dead -> ()
          | Key k -> List.iter (emit lget e_l) (Hashtbl.find_all table k)
          | Fallback -> List.iter (emit lget e_l) !all_rights))
    lbs;
  Batch.Builder.to_batches out

(* Can the vectorized pipeline rooted here emit the same value-row
   twice?  Only a vectorized projection can alias rows (its max-merge
   is deferred to the materialise boundary); scans are sets, filters
   preserve distinctness, joins of distinct sides concatenate
   injectively, and anything the batch executor runs as a tuple
   fallback arrives as an (already deduplicated) relation.  When this
   holds, the fused aggregate may accumulate partials straight from the
   batches; otherwise it must materialise first or double-count. *)
let rec duplicate_free = function
  | Plan.Project _ -> false
  | Plan.Filter (_, c) | Plan.Batched c -> duplicate_free c
  | Plan.Hash_join { left; right; _ } ->
    duplicate_free left && duplicate_free right
  | Plan.Scan _ -> true
  | Plan.Nested_loop _ | Plan.Merge_union _ | Plan.Merge_intersect _
  | Plan.Merge_diff _ | Plan.Hash_aggregate _ | Plan.Grouped_aggregate _
  | Plan.Sketch_count _ | Plan.Sketch_sample _ ->
    true

(* ---------- scans ---------- *)

(* Execute a leaf.  The access path recorded in the plan is advisory
   (EXPLAIN); execution re-derives it through [Access.select], which
   re-checks index existence and key-type homogeneity against the
   table's current state — a cached plan can therefore never return
   wrong rows after a DROP INDEX or a type-heterogeneous insert, it only
   loses the speedup until replanned. *)
let scan db ~tau name pred =
  let table = Database.table_exn db name in
  match pred with
  | None -> Table.snapshot table ~tau
  | Some p -> Access.select table ~tau p

(* ---------- the executor ---------- *)

(* Profile-tree navigation: [Profile.of_plan] mirrors the plan shape, so
   a node's children line up with the plan node's sub-plans. *)
let child1 = function
  | Some { Profile.children = [ c ]; _ } -> Some c
  | Some _ | None -> None

let child2 = function
  | Some { Profile.children = [ l; r ]; _ } -> (Some l, Some r)
  | Some _ | None -> (None, None)

(* What a vectorized subtree yields: live batches plus the arity (the
   batch list may be empty) and the subtree's [texp(e)] — finite only
   when a tuple-mode fallback below contributed one (a difference's
   first reappearance, say); the vectorized operators themselves follow
   the same propagation rules as their streaming twins. *)
type bres = {
  b_arity : int;
  b_batches : Batch.t list;
  b_texp : Time.t;
}

let batch_rows bs = List.fold_left (fun a b -> a + Batch.length b) 0 bs

(* The operator span hook: polymorphic over the node's result so one
   hook wraps both the materialised and the vectorized executors;
   [rows] tells the span its output cardinality without exposing the
   representation. *)
type probe = {
  probe : 'a. string -> rows:('a -> int) -> (unit -> 'a) -> 'a;
}

(* One query's executor: the tuple-at-a-time evaluator [go] and the
   fused aggregate's input side [grouped], sharing the probe, the clock
   reading and the per-query vectorization totals, which [finish] folds
   into the process-global observability counters. *)
type engine = {
  go : Plan.t -> Profile.node option -> Eval.result;
  grouped :
    group:int list ->
    func:Aggregate.func ->
    Plan.t ->
    Profile.node option ->
    Partial_agg.t * int * Time.t;
  finish : unit -> unit;
}

let engine ?(strategy = Aggregate.Exact) ?probe ~db logical =
  (* Mirror Eval.run's up-front well-formedness check so the physical
     path raises the same errors on the same inputs. *)
  let arity_env name = Option.map Table.arity (Database.table db name) in
  let (_ : int) = Algebra.arity ~env:arity_env logical in
  let tau = Database.now db in
  (* Per-query vectorization totals, folded into the process-global
     observability counters once at the end — one mutex acquisition per
     query, nothing per batch or per row. *)
  let vec_batches = ref 0 and vec_rows = ref 0 in
  let vec_cut = ref 0 and vec_rebatches = ref 0 in
  let rec go p prof =
    let k =
      match prof with
      | None -> fun () -> exec_node p prof
      | Some n ->
        fun () ->
          let t0 = Unix.gettimeofday () in
          let r = exec_node p prof in
          n.Profile.time_us <-
            n.Profile.time_us
            + int_of_float ((Unix.gettimeofday () -. t0) *. 1e6);
          n.Profile.rows <-
            n.Profile.rows + Relation.cardinal r.Eval.relation;
          r
    in
    match probe with
    | None -> k ()
    | Some f ->
      f.probe (Plan.operator_name p)
        ~rows:(fun r -> Relation.cardinal r.Eval.relation)
        k
  and exec_node p prof =
    match p with
    | Plan.Scan { name; pred; access = _ } ->
      let relation =
        match prof with
        | None -> scan db ~tau name pred
        | Some n -> (
          let table = Database.table_exn db name in
          match pred with
          | None ->
            let snap = Table.snapshot table ~tau in
            n.Profile.expired_dropped <-
              n.Profile.expired_dropped
              + (Table.physical_count table - Relation.cardinal snap);
            snap
          | Some q ->
            let stats = Access.fresh_stats () in
            let r = Access.select ~stats table ~tau q in
            n.Profile.expired_dropped <-
              n.Profile.expired_dropped + stats.Access.expired_dropped;
            n.Profile.index_visited <-
              n.Profile.index_visited + stats.Access.index_visited;
            r)
      in
      { Eval.relation; texp = Time.Inf }
    | Plan.Filter (pred, c) ->
      let child = go c (child1 prof) in
      { child with Eval.relation = Ops.select pred child.Eval.relation }
    | Plan.Project (js, c) ->
      let child = go c (child1 prof) in
      { child with Eval.relation = Ops.project js child.Eval.relation }
    | Plan.Nested_loop { pred; left; right } ->
      let lp, rp = child2 prof in
      let lr = go left lp and rr = go right rp in
      { Eval.relation = nested_loop pred lr.Eval.relation rr.Eval.relation;
        texp = Time.min lr.Eval.texp rr.Eval.texp
      }
    | Plan.Hash_join { pairs; pred; left; right } ->
      let lp, rp = child2 prof in
      let lr = go left lp and rr = go right rp in
      (match prof with
       | Some n ->
         n.Profile.build_rows <-
           n.Profile.build_rows + Relation.cardinal rr.Eval.relation
       | None -> ());
      { Eval.relation = hash_join ~pairs ~pred lr.Eval.relation rr.Eval.relation;
        texp = Time.min lr.Eval.texp rr.Eval.texp
      }
    | Plan.Merge_union (left, right) ->
      let lp, rp = child2 prof in
      let lr = go left lp and rr = go right rp in
      { Eval.relation = merge_union lr.Eval.relation rr.Eval.relation;
        texp = Time.min lr.Eval.texp rr.Eval.texp
      }
    | Plan.Merge_intersect (left, right) ->
      let lp, rp = child2 prof in
      let lr = go left lp and rr = go right rp in
      { Eval.relation = merge_intersect lr.Eval.relation rr.Eval.relation;
        texp = Time.min lr.Eval.texp rr.Eval.texp
      }
    | Plan.Merge_diff (left, right) ->
      let lp, rp = child2 prof in
      let lr = go left lp and rr = go right rp in
      let reappearance =
        Ops.first_reappearance lr.Eval.relation rr.Eval.relation
      in
      { Eval.relation = merge_diff lr.Eval.relation rr.Eval.relation;
        texp = Time.min (Time.min lr.Eval.texp rr.Eval.texp) reappearance
      }
    | Plan.Hash_aggregate { group; func; child = c } ->
      let child = go c (child1 prof) in
      let relation, invalidation =
        Ops.aggregate strategy ~tau ~group func child.Eval.relation
      in
      { Eval.relation; texp = Time.min child.Eval.texp invalidation }
    | Plan.Grouped_aggregate { group; func; having; projection; child = c } ->
      (match strategy with
       | Aggregate.Exact ->
         let partial, child_arity, child_texp =
           grouped ~group ~func c (child1 prof)
         in
         let relation, invalidation =
           Partial_agg.finalize ~group ~func ~child_arity ?having ~projection
             partial
         in
         { Eval.relation; texp = Time.min child_texp invalidation }
       | Aggregate.Conservative | Aggregate.Neutral | Aggregate.Within _ ->
         (* The non-exact strategies are not recomputable from slice
            partials (neutral subsets need member identity); compose the
            reference operators instead. *)
         let child = go c (child1 prof) in
         let grouped, invalidation =
           Ops.aggregate strategy ~tau ~group func child.Eval.relation
         in
         let selected =
           match having with
           | None -> grouped
           | Some p -> Ops.select p grouped
         in
         { Eval.relation = Ops.project projection selected;
           texp = Time.min child.Eval.texp invalidation
         })
    | Plan.Batched c ->
      (* The materialise boundary: everything below ran (or was
         rebatched) in columnar form; surviving rows become a relation
         again, coinciding tuples max-merging exactly as the streaming
         kernels' [Relation.add] would have along the way. *)
      let r = go_b c (child1 prof) in
      vec_batches := !vec_batches + List.length r.b_batches;
      vec_rows := !vec_rows + batch_rows r.b_batches;
      { Eval.relation = Batch.to_relation ~arity:r.b_arity r.b_batches;
        texp = r.b_texp
      }
    | Plan.Sketch_count { epsilon; child = c } ->
      sketch_node (Approx.Count { epsilon }) ~arity:2 c prof
    | Plan.Sketch_sample { k; child = c } ->
      sketch_node (Approx.Sample { k }) ~arity:(-1) c prof
  (* The vectorized twin of [go]: evaluates a batch-mode subtree to
     column batches, emitting the same per-operator probe spans and
     profile counters — rows summed over batches instead of a relation
     cardinal, plus the batch count. *)
  and go_b p prof =
    if not (Plan.vectorizable p) then rebatch p prof
    else
      let k =
        match prof with
        | None -> fun () -> exec_batch_node p prof
        | Some n ->
          fun () ->
            let t0 = Unix.gettimeofday () in
            let r = exec_batch_node p prof in
            n.Profile.time_us <-
              n.Profile.time_us
              + int_of_float ((Unix.gettimeofday () -. t0) *. 1e6);
            n.Profile.rows <- n.Profile.rows + batch_rows r.b_batches;
            n.Profile.batches <-
              n.Profile.batches + List.length r.b_batches;
            r
      in
      match probe with
      | None -> k ()
      | Some f ->
        f.probe (Plan.operator_name p) ~rows:(fun r -> batch_rows r.b_batches) k
  (* A tuple-mode operator feeding a vectorized parent: run it through
     [go] — its own timing and probe span — then re-enter batch form.
     The materialised relation is a deduplicated set, so the rebatched
     rows satisfy every downstream kernel's assumptions; its possibly
     finite [texp(e)] (a difference's reappearance, say) threads through
     [b_texp]. *)
  and rebatch p prof =
    let child = go p prof in
    incr vec_rebatches;
    { b_arity = Relation.arity child.Eval.relation;
      b_batches = Batch.of_relation child.Eval.relation;
      b_texp = child.Eval.texp
    }
  and exec_batch_node p prof =
    match p with
    | Plan.Batched c ->
      (* A nested boundary — the fused aggregate hands the whole
         [Batched] node here; no materialise, just descend. *)
      go_b c (child1 prof)
    | Plan.Scan { name; pred; access = _ } -> scan_batches name pred prof
    | Plan.Filter (q, c) ->
      let r = go_b c (child1 prof) in
      let kernel = Predicate.compile q in
      { r with b_batches = List.filter_map (Batch.filter kernel) r.b_batches }
    | Plan.Project (js, c) ->
      let r = go_b c (child1 prof) in
      { r with
        b_arity = List.length js;
        b_batches = List.map (Batch.project js) r.b_batches
      }
    | Plan.Hash_join { pairs; pred; left; right } ->
      let lp, rp = child2 prof in
      let lr = go_b left lp and rr = go_b right rp in
      (match prof with
       | Some n ->
         n.Profile.build_rows <-
           n.Profile.build_rows + batch_rows rr.b_batches
       | None -> ());
      { b_arity = lr.b_arity + rr.b_arity;
        b_batches =
          batch_hash_join ~pairs ~pred ~left_arity:lr.b_arity
            ~right_arity:rr.b_arity lr.b_batches rr.b_batches;
        b_texp = Time.min lr.b_texp rr.b_texp
      }
    | ( Plan.Nested_loop _ | Plan.Merge_union _ | Plan.Merge_intersect _
      | Plan.Merge_diff _ | Plan.Hash_aggregate _ | Plan.Grouped_aggregate _
      | Plan.Sketch_count _ | Plan.Sketch_sample _ ) as q ->
      (* Unreachable through [go_b]'s vectorizable guard; kept explicit
         so a vectorizable/exec_batch_node mismatch degrades to the
         tuple fallback instead of crashing a query. *)
      rebatch q prof
  (* The batch-producing leaf.  Full scans cut the table's
     texp-ordered run at [tau], chunk by chunk (the sorted chunks, then
     the insert buffer's): wholly-expired chunks are skipped
     without touching a row, wholly-live chunks pass through zero-copy,
     straddlers pay one binary search — the per-row liveness filter of
     the tuple path disappears entirely.  Index paths re-enter their
     candidate lists through [Batch.of_rows].  Like [scan], the access
     path is re-derived against the table's current state, so a stale
     plan loses only speed, never correctness. *)
  and scan_batches name pred prof =
    let table = Database.table_exn db name in
    let arity = Table.arity table in
    let count_cut skipped =
      if skipped > 0 then begin
        vec_cut := !vec_cut + skipped;
        match prof with
        | Some n ->
          n.Profile.expired_dropped <- n.Profile.expired_dropped + skipped;
          n.Profile.cut_skipped <- n.Profile.cut_skipped + skipped
        | None -> ()
      end
    in
    let cut_scan () =
      let acc = ref [] in
      Texp_run.iter_chunks
        (fun c ->
          let b, skipped = Batch.cut_chunk ~arity ~tau c in
          count_cut skipped;
          match b with None -> () | Some b -> acc := b :: !acc)
        (Table.run table);
      List.rev !acc
    in
    let batches =
      match pred with
      | None -> cut_scan ()
      | Some q ->
        let kernel = Predicate.compile q in
        let filtered bs = List.filter_map (Batch.filter kernel) bs in
        (match Access.plan table q with
         | Access.Full_scan -> filtered (cut_scan ())
         | Access.Never_matches -> []
         | Access.Index_eq { column; value } ->
           let dropped = ref 0 in
           let rows = Table.index_lookup ~dropped table ~column ~tau value in
           (match prof with
            | Some n ->
              n.Profile.expired_dropped <-
                n.Profile.expired_dropped + !dropped
            | None -> ());
           filtered (Option.to_list (Batch.of_rows ~arity rows))
         | Access.Index_range { column; lo; hi } ->
           let visited = ref 0 and dropped = ref 0 in
           let rows =
             Table.index_range ~visited ~dropped table ~column ~tau ~lo ~hi
           in
           (match prof with
            | Some n ->
              n.Profile.expired_dropped <-
                n.Profile.expired_dropped + !dropped;
              n.Profile.index_visited <- n.Profile.index_visited + !visited
            | None -> ());
           filtered (Option.to_list (Batch.of_rows ~arity rows)))
    in
    { b_arity = arity; b_batches = batches; b_texp = Time.Inf }
  (* Folds the child into a bounded-memory sketch and answers from it.
     [arity = -1] means "the child's own arity" (samples return child
     rows; counts return [estimate, within]). *)
  and sketch_node spec ~arity c prof =
    let child = go c (child1 prof) in
    let sketch = Approx.build spec child.Eval.relation in
    let arity =
      if arity >= 0 then arity else Relation.arity child.Eval.relation
    in
    Expirel_sketch.Observatory.record
      ~name:(Approx.name spec)
      ~memory_bytes:(Expirel_sketch.Any.memory_bytes sketch)
      ~estimate:(Expirel_sketch.Any.live_estimate ~tau sketch);
    (match prof with
     | Some n ->
       n.Profile.sketch_bytes <-
         n.Profile.sketch_bytes + Expirel_sketch.Any.memory_bytes sketch
     | None -> ());
    Approx.result ~tau ~arity ~child_texp:child.Eval.texp sketch
  (* The fused aggregate's input side: the child condensed into its
     expiration-slice partial, with the child's arity and texp(e).  The
     batch fast path accumulates straight from the child's batches
     through column accessors — no tuple, no relation, no materialise at
     the boundary.  Guarded by [duplicate_free]: a vectorized projection
     below could alias rows whose max-merge only the materialise
     boundary performs, and slices must count each set member exactly
     once. *)
  and grouped ~group ~func c prof =
    match c with
    | Plan.Batched inner when duplicate_free inner ->
      let r = go_b c prof in
      vec_batches := !vec_batches + List.length r.b_batches;
      vec_rows := !vec_rows + batch_rows r.b_batches;
      let acc = Partial_agg.create_acc ~group ~func in
      List.iter
        (fun b ->
          Batch.fold_rows b ~init:() ~f:(fun () attr texp ->
              Partial_agg.observe_acc acc ~attr ~texp))
        r.b_batches;
      (Partial_agg.of_acc acc, r.b_arity, r.b_texp)
    | c ->
      let child = go c prof in
      ( Partial_agg.of_relation ~group ~func child.Eval.relation,
        Relation.arity child.Eval.relation,
        child.Eval.texp )
  in
  let finish () =
    if !vec_batches > 0 || !vec_rows > 0 || !vec_cut > 0 || !vec_rebatches > 0
    then
      Expirel_obs.Vec_stats.record ~batches:!vec_batches ~rows:!vec_rows
        ~cut_skipped:!vec_cut ~rebatches:!vec_rebatches
  in
  { go; grouped; finish }

let run ?strategy ?probe ?profile ~db compiled =
  let e = engine ?strategy ?probe ~db compiled.Plan.logical in
  let result = e.go compiled.Plan.physical profile in
  e.finish ();
  result

let partial ?probe ~db compiled =
  match compiled.Plan.physical with
  | Plan.Grouped_aggregate { group; func; child; _ } as node ->
    let e = engine ?probe ~db compiled.Plan.logical in
    let k () =
      let partial, _, texp = e.grouped ~group ~func child None in
      (partial, texp)
    in
    let result =
      match probe with
      | None -> k ()
      | Some f ->
        f.probe (Plan.operator_name node) ~rows:(fun (p, _) -> List.length p) k
    in
    e.finish ();
    result
  | _ ->
    invalid_arg "Executor.partial: the plan is not a fused grouped aggregate"
