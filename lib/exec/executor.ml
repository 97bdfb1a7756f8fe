open Expirel_core
open Expirel_storage

(* ---------- hash-join key normalisation ---------- *)

(* Bucket equality must refine the predicate's equality ([Value.cmp]):
   values cmp considers equal must land in the same bucket (misses lose
   result rows), while collisions are harmless because the full
   predicate is re-verified per candidate.  cmp coerces Int-vs-Float
   numerically, so both map to Float keys; Null compares equal to
   nothing (itself included), so Null-keyed rows cannot satisfy an
   equality conjunct and are dropped outright.  NaN is the one value
   where structural hashing diverges the other way (cmp says NaN = NaN,
   generic equality says otherwise): those rare rows probe every build
   row instead. *)
type key_class =
  | Key of Value.t list
  | Dead  (* a Null key attribute: no equality conjunct can hold *)
  | Fallback  (* a NaN key attribute: hashing would miss cmp-equal pairs *)

(* [get] is a 1-based attribute accessor into one row. *)
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

(* ---------- join kernels ---------- *)

(* The right (build) side flattened into rows. *)
let rows_of ~arity bs =
  List.concat_map
    (fun b ->
      Batch.fold_rows b ~init:[] ~f:(fun acc get texp ->
          (Array.init arity (fun j -> get (j + 1)), texp) :: acc))
    bs

(* Every left row meets the right rows [candidates] picks for it; the
   full predicate decides each pair, whose texp is the min of its
   sides' (Equations (2) and (5)).  Output accumulates into column
   buffers, not a tuple map: coinciding rows (possible only when an
   input holds some) max-merge wherever the result is materialised,
   which every kernel here commutes with. *)
let probe_rows ~pred ~left_arity ~right_arity ~candidates lbs =
  let kernel = Predicate.compile pred in
  let out = Batch.Builder.create ~arity:(left_arity + right_arity) in
  let emit lget e_l (row, e_r) =
    let get j = if j <= left_arity then lget j else row.(j - left_arity - 1) in
    if kernel get then Batch.Builder.add out get (Time.min e_l e_r)
  in
  List.iter
    (fun b ->
      Batch.fold_rows b ~init:() ~f:(fun () lget e_l ->
          List.iter (emit lget e_l) (candidates lget)))
    lbs;
  Batch.Builder.to_batches out

(* Select-over-product: O(|l|·|r|) time, O(out) space. *)
let nested_loop ~pred ~left_arity ~right_arity lbs rbs =
  let rights = rows_of ~arity:right_arity rbs in
  probe_rows ~pred ~left_arity ~right_arity ~candidates:(fun _ -> rights) lbs

(* Build on the right, probe from the left; NaN-keyed probes scan every
   build row. *)
let hash_join ~pairs ~pred ~left_arity ~right_arity lbs rbs =
  let rights = rows_of ~arity:right_arity rbs in
  let left_cols = List.map fst pairs and right_cols = List.map snd pairs in
  let table = Hashtbl.create (max 16 (2 * List.length rights)) in
  List.iter
    (fun ((row, _) as r) ->
      match key_of_cols (fun j -> row.(j - 1)) right_cols with
      | Key k -> Hashtbl.add table k r
      | Dead | Fallback -> ())
    rights;
  let candidates lget =
    match key_of_cols lget left_cols with
    | Dead -> []
    | Key k -> Hashtbl.find_all table k
    | Fallback -> rights
  in
  probe_rows ~pred ~left_arity ~right_arity ~candidates lbs

(* ---------- merge kernels ---------- *)

(* Relations are ordered maps, so [to_list] is sorted by [Tuple.compare]
   with distinct keys: intersection and difference become one linear
   merge instead of per-tuple searches of the other side.  Right-only
   tuples survive neither. *)
let merge ~left_only ~both left right =
  let rec go xs ys acc =
    match xs, ys with
    | [], _ -> acc
    | xs, [] -> List.fold_left (fun acc (t, e) -> left_only t e acc) acc xs
    | ((tx, ex) :: xs' as xs), ((ty, ey) :: ys' as ys) ->
      let c = Tuple.compare tx ty in
      if c < 0 then go xs' ys (left_only tx ex acc)
      else if c > 0 then go xs ys' acc
      else go xs' ys' (both tx ex ey acc)
  in
  go (Relation.to_list left) (Relation.to_list right)
    (Relation.empty ~arity:(Relation.arity left))

let merge_intersect =
  merge
    ~left_only:(fun _ _ acc -> acc)
    ~both:(fun t e_l e_r acc -> Relation.add t ~texp:(Time.min e_l e_r) acc)

(* The difference, and the first time a hidden left tuple reappears
   (Section 2.6.2): the earliest right texp below its left copy's. *)
let merge_diff left right =
  let reappears = ref Time.Inf in
  let rows =
    merge
      ~left_only:(fun t e acc -> Relation.add t ~texp:e acc)
      ~both:(fun _ e_l e_r acc ->
        if Time.(e_l > e_r) then reappears := Time.min !reappears e_r;
        acc)
      left right
  in
  (rows, !reappears)

(* ---------- the executor ---------- *)

module Trace = Expirel_obs.Trace

type reply =
  | Rows of ((Value.t list * Time.t) list * Time.t) list
  | Partials of (Partial_agg.t * Time.t) list
  | Finalised of Eval.result
  | Sketches of Expirel_sketch.Any.t list

type transport = Plan.exchange -> reply

(* The exchanges' answers merge under one span of the coordinator's. *)
let merge_span = Trace.name "merge"

(* The union of the shards' rows, each shard's cut at [tau] (a whole
   table ships as the shard's clock leaves it), and the least of their
   texp(e)s (Equation (4)): partitions are disjoint, so the union is the
   answer over all rows. *)
let union_parts ~tau ~arity parts =
  let live (vs, e) = if Time.(e > tau) then Some (Tuple.of_list vs, e) else None in
  let relation_of rows = Relation.of_list ~arity (List.filter_map live rows) in
  let union acc (rows, _) = Relation.union_max acc (relation_of rows) in
  { Eval.relation = List.fold_left union (Relation.empty ~arity) parts;
    texp = Time.min_list (List.map snd parts)
  }

(* The counters op spans carry, interned once. *)
let rows_key = Trace.name "rows"
let batches_key = Trace.name "batches"
let build_key = Trace.name "build"
let dropped_key = Trace.name "dropped"
let cut_skipped_key = Trace.name "cut_skipped"
let visited_key = Trace.name "visited"
let sketch_bytes_key = Trace.name "sketch_bytes"

(* What an operator yields.  Batches may hold coinciding rows when a
   projection, a union or a join over either sits below ([dups]): their
   max-merge waits for the next materialisation.  Set-semantics
   operators (intersection, difference, aggregates, sketches) yield the
   set they computed; a batch parent rebatches it. *)
type rows =
  | Batches of {
      batches : Batch.t list;
      dups : bool;
    }
  | Set of Relation.t

type res = {
  arity : int;  (* the batch list may be empty *)
  rows : rows;
  texp : Time.t;  (* the subtree's texp(e) *)
}

let batch_rows bs = List.fold_left (fun a b -> a + Batch.length b) 0 bs

(* The rows of [bs] that satisfy the predicate, if there is one. *)
let select pred bs =
  match pred with
  | None -> bs
  | Some q -> List.filter_map (Batch.filter (Predicate.compile q)) bs

let res_rows r =
  match r.rows with
  | Batches { batches; _ } -> batch_rows batches
  | Set s -> Relation.cardinal s

let set_res { Eval.relation; texp } =
  { arity = Relation.arity relation; rows = Set relation; texp }

(* Runs [k] in plan node [p]'s [op:<name>] span, then [labels] counts
   what it reads off the result onto the span.  Untraced, it is just
   [k ()]: no span, no label, no allocation. *)
let op_span trace p ~labels k =
  match trace with
  | None -> k ()
  | Some _ ->
    Trace.span trace (Plan.operator_span p) (fun () ->
        let r = k () in
        labels r;
        r)

(* One query's executor: the root evaluation, the fused aggregate's
   input side and the sketch fold, sharing the trace, the snapshot
   source and the per-query vectorization totals, which [finish] folds
   into the process-global observability counters. *)
type engine = {
  result : Plan.t -> Eval.result;
  grouped :
    group:int list -> func:Aggregate.func -> Plan.t -> Partial_agg.t * res;
  fold_sketch : Approx.spec -> Plan.t -> Expirel_sketch.Any.t * res;
  finish : unit -> unit;
}

let engine ?trace ?tau ?db ?(replies = ref []) logical =
  (* Mirror the naive evaluator's up-front well-formedness check so the
     physical path raises the same errors on the same inputs.  A plan of
     exchanges reads no database. *)
  let env db name = Option.map Table.arity (Database.table db name) in
  Option.iter (fun db -> ignore (Algebra.arity ~env:(env db) logical : int)) db;
  let db () = Option.get db in
  let tau = match tau with Some tau -> tau | None -> Database.now (db ()) in
  (* The next exchange's answer, in the order the leaves run. *)
  let reply () =
    match !replies with
    | r :: rest ->
      replies := rest;
      r
    | [] -> invalid_arg "Executor.run: an exchange needs a transport"
  in
  let unexpected () = invalid_arg "Executor.run: an exchange answered what it did not want" in
  (* Per-query vectorization totals, folded into the process-global
     observability counters once at the end — one mutex acquisition per
     query, nothing per batch or per row. *)
  let vec_batches = ref 0 and vec_rows = ref 0 in
  let vec_cut = ref 0 and vec_rebatches = ref 0 in
  let consumed bs =
    vec_batches := !vec_batches + List.length bs;
    vec_rows := !vec_rows + batch_rows bs
  in
  (* A counter on the innermost open span — the running operator's. *)
  let label key n = Trace.count trace key n in
  (* A set-semantics consumer's input: coinciding rows max-merge on the
     way, as [Relation.add] merges them. *)
  let to_set r =
    match r.rows with
    | Set s -> s
    | Batches { batches; _ } ->
      consumed batches;
      Batch.to_relation ~arity:r.arity batches
  in
  (* A batch kernel's input: a set re-enters batch form, counted as a
     rebatch. *)
  let to_batches r =
    match r.rows with
    | Batches { batches; dups } -> (batches, dups)
    | Set s ->
      incr vec_rebatches;
      (Batch.of_relation s, false)
  in
  (* Each member of the result's set exactly once, straight from the
     batches when no two rows coincide. *)
  let iter_distinct r f =
    match r.rows with
    | Batches { batches; dups = false } ->
      consumed batches;
      List.iter
        (fun b -> Batch.fold_rows b ~init:() ~f:(fun () get texp -> f get texp))
        batches
    | Set _ | Batches { dups = true; _ } ->
      Relation.iter (fun t texp -> f (Tuple.attr t) texp) (to_set r)
  in
  (* Every operator's span carries its output rows, and its batch count
     when it yields batches. *)
  let measure p k =
    op_span trace p k ~labels:(fun r ->
        label rows_key (res_rows r);
        match r.rows with
        | Batches { batches; _ } -> label batches_key (List.length batches)
        | Set _ -> ())
  in
  let rec go p = measure p (fun () -> exec_node p)
  and exec_node p =
    match p with
    | Plan.Exchange x -> exchange x
    | Plan.Scan { name; pred; access = _ } -> scan name pred
    | Plan.Filter (q, c) ->
      let r = go c in
      let batches, dups = to_batches r in
      { r with rows = Batches { batches = select (Some q) batches; dups } }
    | Plan.Project (js, c) ->
      let r = go c in
      let batches, _ = to_batches r in
      { r with
        arity = List.length js;
        rows =
          Batches { batches = List.map (Batch.project js) batches; dups = true }
      }
    | Plan.Nested_loop { pred; left; right } ->
      join (nested_loop ~pred) left right
    | Plan.Hash_join { pairs; pred; left; right } ->
      join (hash_join ~pairs ~pred) left right
    | Plan.Merge_union (left, right) ->
      (* Concatenation: a tuple on both sides max-merges (Equation (4))
         wherever the result is materialised. *)
      let l, r = both left right in
      let lbs, _ = to_batches l and rbs, _ = to_batches r in
      { l with
        rows = Batches { batches = lbs @ rbs; dups = true };
        texp = Time.min l.texp r.texp
      }
    | Plan.Merge_intersect (left, right) ->
      let l, r = both left right in
      { arity = l.arity;
        rows = Set (merge_intersect (to_set l) (to_set r));
        texp = Time.min l.texp r.texp
      }
    | Plan.Merge_diff (left, right) ->
      let l, r = both left right in
      let rows, reappears = merge_diff (to_set l) (to_set r) in
      { arity = l.arity;
        rows = Set rows;
        texp = Time.min (Time.min l.texp r.texp) reappears
      }
    | Plan.Grouped_aggregate { group; func; having; projection; child = c } ->
      let finalize partial ~child_arity ~child_texp =
        let relation, invalidation =
          Partial_agg.finalize ~group ~func ~child_arity ?having ~projection partial
        in
        set_res { Eval.relation; texp = Time.min child_texp invalidation }
      in
      (match c with
       | Plan.Exchange x ->
         (match reply () with
          | Partials parts ->
            finalize
              (Partial_agg.merge_all ~func (List.map fst parts))
              ~child_arity:x.arity ~child_texp:(Time.min_list (List.map snd parts))
          | Finalised r -> set_res r
          | _ -> unexpected ())
       | _ ->
         let partial, r = grouped ~group ~func c in
         finalize partial ~child_arity:r.arity ~child_texp:r.texp)
    | Plan.Sketch_count { epsilon; child = c } ->
      sketch_node (Approx.Count { epsilon }) c
    | Plan.Sketch_sample { k; child = c } -> sketch_node (Approx.Sample { k }) c
  and both left right =
    let l = go left in
    (l, go right)
  and join kernel left right =
    let l, r = both left right in
    let lbs, ldups = to_batches l and rbs, rdups = to_batches r in
    label build_key (batch_rows rbs);
    { arity = l.arity + r.arity;
      rows =
        Batches
          { batches =
              kernel ~left_arity:l.arity ~right_arity:r.arity lbs rbs;
            dups = ldups || rdups
          };
      texp = Time.min l.texp r.texp
    }
  and exchange x =
    match reply () with
    | Rows parts -> set_res (union_parts ~tau ~arity:x.arity parts)
    | _ -> unexpected ()
  (* The leaf: one [Texp_run.scan_range], over the table's own run for a
     full scan (unbounded bounds) and over an index's run in its key
     range otherwise.  The access path recorded in the plan is advisory
     (EXPLAIN): it is re-derived through [Access.plan] against the
     table's current state at [tau], so a cached plan can never return
     wrong rows after a DROP INDEX or a type-heterogeneous insert, and
     follows the estimates as the table churns.  The span counts the
     rows the [tau] cut dropped (the expiration churn), and an index
     scan also the rows it visited. *)
  and scan name pred =
    let table = Database.table_exn (db ()) name in
    let arity = Table.arity table in
    let range run ~lo ~hi ~full =
      let visited = ref 0 and dropped = ref 0 and acc = ref [] in
      Texp_run.scan_range run ~tau ~lo ~hi ~visited ~dropped (fun c sel ->
          acc := Batch.of_slice ~arity c sel :: !acc);
      label dropped_key !dropped;
      if full then begin
        vec_cut := !vec_cut + !dropped;
        label cut_skipped_key !dropped
      end
      else label visited_key !visited;
      List.rev !acc
    in
    let full_scan () =
      range (Table.run table) ~lo:Texp_run.Unbounded ~hi:Texp_run.Unbounded ~full:true
    in
    let candidates =
      match pred with
      | None -> full_scan ()
      | Some q ->
        (match Access.plan table ~tau q with
         | Access.Full_scan -> full_scan ()
         | Access.Never_matches -> []
         | Access.Index { column; lo; hi } ->
           range (Table.index table ~column) ~lo ~hi ~full:false)
    in
    { arity;
      rows = Batches { batches = select pred candidates; dups = false };
      texp = Time.Inf
    }
  (* Folds the child into a bounded-memory sketch, recorded in the
     sketch observatory and on the span. *)
  and fold_sketch spec c =
    match c with
    | Plan.Exchange x ->
      let merge acc s =
        match Expirel_sketch.Any.merge acc s with
        | Ok merged -> merged
        | Error m -> failwith ("sketch partials: " ^ m)
      in
      let merged =
        match reply () with
        | Sketches (s :: rest) -> List.fold_left merge s rest
        | Sketches [] -> Approx.build spec ~arity:x.arity ignore
        | _ -> unexpected ()
      in
      (merged, { arity = x.arity; rows = Set (Relation.empty ~arity:x.arity); texp = Time.Inf })
    | _ ->
    let r = go c in
    let sketch = Approx.build spec ~arity:r.arity (iter_distinct r) in
    let bytes = Expirel_sketch.Any.memory_bytes sketch in
    Expirel_sketch.Observatory.record ~name:(Approx.name spec)
      ~memory_bytes:bytes
      ~estimate:(Expirel_sketch.Any.live_estimate ~tau sketch);
    label sketch_bytes_key bytes;
    (sketch, r)
  (* Answers from the folded sketch. *)
  and sketch_node spec c =
    let sketch, r = fold_sketch spec c in
    let arity =
      match spec with
      | Approx.Count _ -> 2
      | Approx.Sample _ -> r.arity
    in
    set_res (Approx.result ~tau ~arity ~child_texp:r.texp sketch)
  (* The fused aggregate's input side: the child condensed into its
     expiration-slice partial, straight from the child's batches when
     no two of their rows coincide; a projection below forces the
     max-merge first, since slices must count each set member exactly
     once. *)
  and grouped ~group ~func c =
    let r = go c in
    let acc = Partial_agg.create_acc ~group ~func in
    (* The set rebatched is not a batch kernel's input rebatched, so it
       is not counted as a rebatch. *)
    let batches =
      match r.rows with
      | Batches { batches; dups = false } ->
        consumed batches;
        batches
      | Set _ | Batches { dups = true; _ } -> Batch.of_relation (to_set r)
    in
    List.iter (Partial_agg.observe_batch acc) batches;
    (Partial_agg.of_acc acc, r)
  in
  (* The root materialises once.  A bare unfiltered scan answers with
     the table's snapshot instead, generation-cached: O(1) on repeated
     reads of an unchanged table. *)
  let result p =
    let r =
      match p with
      | Plan.Scan { name; pred = None; access = _ } ->
        measure p (fun () ->
            let table = Database.table_exn (db ()) name in
            let snap = Table.snapshot table ~tau in
            if Option.is_some trace then
              label dropped_key
                (Table.physical_count table - Relation.cardinal snap);
            { arity = Table.arity table; rows = Set snap; texp = Time.Inf })
      | p -> go p
    in
    { Eval.relation = to_set r; texp = r.texp }
  in
  let finish () =
    if !vec_batches > 0 || !vec_rows > 0 || !vec_cut > 0 || !vec_rebatches > 0
    then
      Expirel_obs.Vec_stats.record
        { Expirel_obs.Vec_stats.s_batches = !vec_batches;
          s_rows = !vec_rows;
          s_cut_skipped = !vec_cut;
          s_rebatches = !vec_rebatches
        }
  in
  { result; grouped; fold_sketch; finish }

let run ?trace ?tau ?db ?transport { Plan.logical; physical } =
  let evaluate ?replies () =
    let e = engine ?trace ?tau ?db ?replies logical in
    let result = e.result physical in
    e.finish ();
    result
  in
  match transport with
  | None -> evaluate ()
  | Some transport ->
    (* Every exchange is answered before any operator span opens, so the
       transport's own spans stay beside the merge, never under it.  A
       root rows exchange is the answer: its union needs no engine. *)
    let replies = List.map transport (Plan.exchanges physical) in
    Trace.span trace merge_span (fun () ->
        match physical, replies, tau with
        | Plan.Exchange x, [ Rows parts ], Some tau ->
          op_span trace physical
            ~labels:(fun r -> Trace.count trace rows_key (Relation.cardinal r.Eval.relation))
            (fun () -> union_parts ~tau ~arity:x.arity parts)
        | _ -> evaluate ~replies:(ref replies) ())

let partial ?trace ?tau ~db compiled =
  match compiled.Plan.physical with
  | Plan.Grouped_aggregate { group; func; child; _ } as node ->
    let e = engine ?trace ?tau ~db compiled.Plan.logical in
    let result =
      op_span trace node
        ~labels:(fun (p, _) -> Trace.count trace rows_key (List.length p))
        (fun () ->
          let partial, r = e.grouped ~group ~func child in
          (partial, r.texp))
    in
    e.finish ();
    result
  | _ ->
    invalid_arg "Executor.partial: the plan is not a fused grouped aggregate"

let sketch ?trace ?tau ~db compiled =
  let spec, child =
    match compiled.Plan.physical with
    | Plan.Sketch_count { epsilon; child } -> (Approx.Count { epsilon }, child)
    | Plan.Sketch_sample { k; child } -> (Approx.Sample { k }, child)
    | _ -> invalid_arg "Executor.sketch: the plan is not a sketch operator"
  in
  let e = engine ?trace ?tau ~db compiled.Plan.logical in
  let sketch, _ =
    op_span trace compiled.Plan.physical ~labels:ignore (fun () ->
        e.fold_sketch spec child)
  in
  e.finish ();
  sketch

(* ---------- EXPLAIN ANALYZE ---------- *)

(* One plan line's annotation, read off its op span.  A counter prints
   only where it means something: dropped on scans (the expiration
   churn), visited on index scans, build on hash joins, sketch bytes
   on sketches, batch counts on operators that yielded batches and
   chunk-cut savings on batch scans. *)
let annotate ~est op (s : Trace.span) =
  let get key = Option.value (List.assoc_opt key s.labels) ~default:"0" in
  let scan = op = "seq-scan" || op = "index-scan" in
  let batched = get "batches" <> "0" in
  let field cond key =
    if cond then Printf.sprintf " %s=%s" key (get key) else ""
  in
  String.concat ""
    [ Printf.sprintf "(est=%d rows=%s" est (get "rows");
      field scan "dropped";
      field (op = "index-scan") "visited";
      field (op = "hash-join") "build";
      (if op = "sketch-count" || op = "sketch-sample" then
         Printf.sprintf " sketch=%sB" (get "sketch_bytes")
       else "");
      field batched "batches";
      field (scan && batched) "cut_skipped";
      Printf.sprintf " time=%.3fms)" (float_of_int s.duration_us /. 1e3) ]

let analyze ~trace ~db compiled =
  let before = List.length (Trace.spans trace) in
  let { Eval.relation; texp } = run ~trace ~db compiled in
  let spans = List.filteri (fun i _ -> i >= before) (Trace.spans trace) in
  (* Siblings run one after the other, so they close in plan order. *)
  let children (s : Trace.span) =
    List.filter (fun (c : Trace.span) -> c.parent = Some s.id) spans
  in
  let buf = Buffer.create 256 and dropped = ref 0 in
  let rec render depth p (s : Trace.span) =
    Option.iter
      (fun d -> dropped := !dropped + int_of_string d)
      (List.assoc_opt "dropped" s.labels);
    Printf.bprintf buf "%s%s  %s\n"
      (String.make (2 * depth) ' ')
      (Plan.describe p)
      (annotate ~est:(Planner.estimate_rows db p) (Plan.operator_name p) s);
    List.iter2 (render (depth + 1)) (Plan.children p) (children s)
  in
  (* The root's span closes last. *)
  let root = List.nth spans (List.length spans - 1) in
  render 0 compiled.Plan.physical root;
  Printf.sprintf
    "%srows: %d\ntexp(e) now: %s\nexpired dropped: %d\ntotal: %.3fms"
    (Buffer.contents buf) (Relation.cardinal relation) (Time.to_string texp)
    !dropped
    (float_of_int root.duration_us /. 1e3)
