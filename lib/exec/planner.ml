open Expirel_core
open Expirel_storage

let arity_env db name = Option.map Table.arity (Database.table db name)

(* Cheap cardinality estimates for costing physical alternatives: table
   stats at the leaves, fixed selectivity factors above them.  These only
   steer operator choice; they never affect results. *)
let rec estimate_rows db = function
  | Plan.Scan { name; pred; access } ->
    (match Database.table db name with
     | None -> 0
     | Some table ->
       (* Live rows, not physical ones: on a churny (lazily vacuumed)
          table the scan only ever emits what survives the binary-search
          cut at [tau], so costing by [physical_count] would overprice
          every path — and misprice index scans against full scans —
          by the expired fraction. *)
       let n = Table.live_estimate table ~tau:(Database.now db) in
       (match access, pred with
        | Access.Never_matches, _ -> 0
        | Access.Index _, _ ->
          (* the index rows in the key range: O(log n), an upper bound *)
          min n (max 1 (Access.entries table access))
        | Access.Full_scan, Some _ -> max 1 (n / 3)
        | Access.Full_scan, None -> n))
  | Plan.Filter (_, c) -> max 1 (estimate_rows db c / 3)
  | Plan.Project (_, c) -> estimate_rows db c
  | Plan.Nested_loop { pred; left; right } ->
    let pairs = estimate_rows db left * estimate_rows db right in
    (match pred with
     | Predicate.True -> pairs
     | _ -> max 1 (pairs / 3))
  | Plan.Hash_join { left; right; _ } ->
    max (estimate_rows db left) (estimate_rows db right)
  | Plan.Merge_union (l, r) -> estimate_rows db l + estimate_rows db r
  | Plan.Merge_intersect (l, r) ->
    min (estimate_rows db l) (estimate_rows db r)
  | Plan.Merge_diff (l, _) -> estimate_rows db l
  | Plan.Grouped_aggregate { child; _ } -> estimate_rows db child
  | Plan.Sketch_count _ -> 1
  | Plan.Sketch_sample { k; _ } -> k

let scan db name pred =
  let access =
    match Database.table db name, pred with
    | Some table, Some p -> Access.plan table ~tau:(Database.now db) p
    | Some _, None | None, _ -> Access.Full_scan
  in
  Plan.Scan { name; pred; access }

let join db p l pl pr =
  let left_arity = Algebra.arity ~env:(arity_env db) l in
  match Predicate.equi_split ~left_arity p with
  | Some { Predicate.pairs; residual = _ } ->
    let left = estimate_rows db pl and right = estimate_rows db pr in
    (* the factor 2 keeps tiny inputs on the allocation-free loop *)
    if 2 * (left + right) < left * right then
      Plan.Hash_join { pairs; pred = p; left = pl; right = pr }
    else Plan.Nested_loop { pred = p; left = pl; right = pr }
  | None -> Plan.Nested_loop { pred = p; left = pl; right = pr }

let refuse fmt = Printf.ksprintf (fun m -> invalid_arg ("Planner.plan: " ^ m)) fmt

let rec compile db = function
  | Algebra.Base name -> scan db name None
  | Algebra.Select (p, Algebra.Base name) -> scan db name (Some p)
  | Algebra.Select (p, e) -> Plan.Filter (p, compile db e)
  | Algebra.Project (js, Algebra.Select (h, Algebra.Aggregate (group, func, e))) ->
    grouped db js (Some h) group func e
  | Algebra.Project (js, Algebra.Aggregate (group, func, e)) ->
    grouped db js None group func e
  | Algebra.Project (js, e) -> Plan.Project (js, compile db e)
  | Algebra.Product (l, r) ->
    Plan.Nested_loop
      { pred = Predicate.True; left = compile db l; right = compile db r }
  | Algebra.Join (p, l, r) -> join db p l (compile db l) (compile db r)
  | Algebra.Union (l, r) -> Plan.Merge_union (compile db l, compile db r)
  | Algebra.Intersect (l, r) ->
    Plan.Merge_intersect (compile db l, compile db r)
  | Algebra.Diff (l, r) -> Plan.Merge_diff (compile db l, compile db r)
  | Algebra.Aggregate _ ->
    refuse "an aggregate plans only under a GROUP BY projection"

(* An aggregate plans only in the shape sqlx lowers GROUP BY to: a
   projection, maybe over a HAVING selection, directly over it, both
   touching nothing but GROUP BY positions and the aggregate at
   [child_arity + 1] (other positions have no single per-group value).
   That shape fuses into one Grouped_aggregate node, executed over
   expiration-slice partials (Partial_agg), the same condensed form the
   cluster coordinator merges across shards. *)
and grouped db projection having group func e =
  let child_arity = Algebra.arity ~env:(arity_env db) e in
  let grouped j = j = child_arity + 1 || List.mem j group in
  List.iter
    (fun j ->
      if not (grouped j) then
        refuse "projection keeps column %d, neither grouped nor the aggregate" j)
    projection;
  Option.iter
    (fun p ->
      if Predicate.rename (fun c -> if grouped c then Some c else None) p = None
      then
        refuse "HAVING [%s] reads a column neither grouped nor the aggregate"
          (Predicate.to_string p))
    having;
  Plan.Grouped_aggregate { group; func; having; projection; child = compile db e }

let rebind ~db f { Plan.logical; physical } =
  let pred = Predicate.map_consts f in
  let rec go = function
    | Plan.Scan { name; pred = Some p; access } ->
      let p = pred p in
      let access =
        match access, Database.table db name with
        | Access.Index { column; _ }, Some table -> Access.path table p ~column
        | access, _ -> access
      in
      Plan.Scan { name; pred = Some p; access }
    | Plan.Scan { pred = None; _ } as s -> s
    | Plan.Filter (p, c) -> Plan.Filter (pred p, go c)
    | Plan.Project (js, c) -> Plan.Project (js, go c)
    | Plan.Nested_loop { pred = p; left; right } ->
      Plan.Nested_loop { pred = pred p; left = go left; right = go right }
    | Plan.Hash_join { pairs; pred = p; left; right } ->
      Plan.Hash_join { pairs; pred = pred p; left = go left; right = go right }
    | Plan.Merge_union (l, r) -> Plan.Merge_union (go l, go r)
    | Plan.Merge_intersect (l, r) -> Plan.Merge_intersect (go l, go r)
    | Plan.Merge_diff (l, r) -> Plan.Merge_diff (go l, go r)
    | Plan.Grouped_aggregate a ->
      Plan.Grouped_aggregate
        { a with having = Option.map pred a.having; child = go a.child }
    | Plan.Sketch_count s -> Plan.Sketch_count { s with child = go s.child }
    | Plan.Sketch_sample s -> Plan.Sketch_sample { s with child = go s.child }
  in
  { Plan.logical = Algebra.map_preds pred logical; physical = go physical }

let plan ~db ?approx expr =
  (* The oracle's errors first: an ill-formed expression raises what
     [Eval] raises before any shape is checked. *)
  let (_ : int) = Algebra.arity ~env:(arity_env db) expr in
  let physical = compile db expr in
  let physical =
    match approx with
    | None -> physical
    | Some (Approx.Count { epsilon }) ->
      Plan.Sketch_count { epsilon; child = physical }
    | Some (Approx.Sample { k }) -> Plan.Sketch_sample { k; child = physical }
  in
  { Plan.logical = expr; physical }
