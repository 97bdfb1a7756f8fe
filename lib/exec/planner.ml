open Expirel_core
open Expirel_storage

let arity_env db name = Option.map Table.arity (Database.table db name)

(* An exchange's rows are unknown until it runs: costed as many, so a
   join over exchanges hashes when its condition has equi-keys. *)
let exchange_rows = 1 lsl 20

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
  | Plan.Exchange _ -> exchange_rows

(* What compiling a plan reads: the base relations' widths, the leaf a
   base relation (maybe filtered) becomes, and the row estimates that
   choose a join's algorithm. *)
type source = {
  env : string -> int option;
  leaf : string -> Predicate.t option -> Plan.t;
  rows : Plan.t -> int;
}

let scan db name pred =
  let access =
    match Database.table db name, pred with
    | Some table, Some p -> Access.plan table ~tau:(Database.now db) p
    | Some _, None | None, _ -> Access.Full_scan
  in
  Plan.Scan { name; pred; access }

let local db = { env = arity_env db; leaf = scan db; rows = estimate_rows db }

let join s p l pl pr =
  let left_arity = Algebra.arity ~env:s.env l in
  match Predicate.equi_split ~left_arity p with
  | Some { Predicate.pairs; residual = _ } ->
    let left = s.rows pl and right = s.rows pr in
    (* the factor 2 keeps tiny inputs on the allocation-free loop *)
    if 2 * (left + right) < left * right then
      Plan.Hash_join { pairs; pred = p; left = pl; right = pr }
    else Plan.Nested_loop { pred = p; left = pl; right = pr }
  | None -> Plan.Nested_loop { pred = p; left = pl; right = pr }

let refuse fmt = Printf.ksprintf (fun m -> invalid_arg ("Planner.plan: " ^ m)) fmt

let rec compile s = function
  | Algebra.Base name -> s.leaf name None
  | Algebra.Select (p, Algebra.Base name) -> s.leaf name (Some p)
  | Algebra.Select (p, e) -> Plan.Filter (p, compile s e)
  | Algebra.Project (js, Algebra.Select (h, Algebra.Aggregate (group, func, e))) ->
    grouped s js (Some h) group func e (fun () -> compile s e)
  | Algebra.Project (js, Algebra.Aggregate (group, func, e)) ->
    grouped s js None group func e (fun () -> compile s e)
  | Algebra.Project (js, e) -> Plan.Project (js, compile s e)
  | Algebra.Product (l, r) ->
    Plan.Nested_loop
      { pred = Predicate.True; left = compile s l; right = compile s r }
  | Algebra.Join (p, l, r) -> join s p l (compile s l) (compile s r)
  | Algebra.Union (l, r) -> Plan.Merge_union (compile s l, compile s r)
  | Algebra.Intersect (l, r) ->
    Plan.Merge_intersect (compile s l, compile s r)
  | Algebra.Diff (l, r) -> Plan.Merge_diff (compile s l, compile s r)
  | Algebra.Aggregate _ ->
    refuse "an aggregate plans only under a GROUP BY projection"

(* An aggregate plans only in the shape sqlx lowers GROUP BY to: a
   projection, maybe over a HAVING selection, directly over it, both
   touching nothing but GROUP BY positions and the aggregate at
   [child_arity + 1] (other positions have no single per-group value).
   That shape fuses into one Grouped_aggregate node over [child],
   executed over expiration-slice partials (Partial_agg), the same
   condensed form the cluster coordinator merges across shards. *)
and grouped s projection having group func e child =
  let child_arity = Algebra.arity ~env:s.env e in
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
  Plan.Grouped_aggregate { group; func; having; projection; child = child () }

let wrap approx physical =
  match approx with
  | None -> physical
  | Some (Approx.Count { epsilon }) -> Plan.Sketch_count { epsilon; child = physical }
  | Some (Approx.Sample { k }) -> Plan.Sketch_sample { k; child = physical }

let rebind ?db f { Plan.logical; physical } =
  let pred = Predicate.map_consts f in
  let rec go = function
    | Plan.Exchange x -> Plan.Exchange { x with keys = Option.map (List.map f) x.keys }
    | Plan.Scan { name; pred = Some p; access } ->
      let p = pred p in
      let access =
        match access, Option.bind db (fun db -> Database.table db name) with
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
  { Plan.logical = expr; physical = wrap approx (compile (local db) expr) }

(* ---------- a cluster coordinator's plans ---------- *)

(* Rows live on the shard that owns the hash of their first column, so
   a join whose condition equates the two first columns is
   co-partitioned: join partners share a hash, hence a shard. *)
let co_partitioned p ~left_arity =
  List.exists
    (function
      | Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Col c)
      | Predicate.Cmp (Predicate.Eq, Predicate.Col c, Predicate.Col 1) ->
        c = left_arity + 1
      | _ -> false)
    (Predicate.conjuncts p)

(* An equality pins its constant, a conjunction whatever either side
   pins, a disjunction the union when both sides pin (sqlx has no IN;
   an OR of points is its IN list). *)
let rec pinned_keys = function
  | Predicate.Cmp (Predicate.Eq, Predicate.Col 1, Predicate.Const v)
  | Predicate.Cmp (Predicate.Eq, Predicate.Const v, Predicate.Col 1) ->
    Some [ v ]
  | Predicate.And (a, b) ->
    (match pinned_keys a with
     | Some _ as keys -> keys
     | None -> pinned_keys b)
  | Predicate.Or (a, b) ->
    (match (pinned_keys a, pinned_keys b) with
     | Some x, Some y -> Some (x @ y)
     | _ -> None)
  | _ -> None

(* [Some (key, keys)] when [e] is shard-local: [e] on each shard's
   partition, merged under the union rule, is [e] over all rows.  [key]
   is the output position still holding the hash key, if one does, and
   [keys] the first-column values its rows can have, if it pins any.
   Selection, projection and union are monotone (Theorem 1) and commute
   with the union of disjoint partitions; a co-partitioned join finds
   its partners on one shard; an EXCEPT or INTERSECT whose operands
   keep the key at one position has its equal rows on one shard, and
   answers a subset of its left operand's rows. *)
let rec shard_local ~env = function
  | Algebra.Base _ -> Some (Some 1, None)
  | Algebra.Select (p, Algebra.Base _) -> Some (Some 1, pinned_keys p)
  | Algebra.Select (_, e) -> Option.map (fun (key, _) -> (key, None)) (shard_local ~env e)
  | Algebra.Project (ps, e) ->
    let moved k = Option.map succ (List.find_index (Int.equal k) ps) in
    Option.map (fun (key, keys) -> (Option.bind key moved, keys)) (shard_local ~env e)
  | Algebra.Join (p, Algebra.Base left, Algebra.Base _) ->
    (match env left with
     | Some left_arity when co_partitioned p ~left_arity -> Some (Some 1, None)
     | _ -> None)
  | Algebra.Union (a, b) ->
    (match (shard_local ~env a, shard_local ~env b) with
     | Some (ka, xa), Some (kb, xb) ->
       Some ((if ka = kb then ka else None), Option.bind xa (fun x -> Option.map (( @ ) x) xb))
     | _ -> None)
  | Algebra.Diff (a, b) | Algebra.Intersect (a, b) ->
    (match (shard_local ~env a, shard_local ~env b) with
     | Some ((Some ka, _) as left), Some (Some kb, _) when ka = kb -> Some left
     | _ -> None)
  | Algebra.Join _ | Algebra.Product _ | Algebra.Aggregate _ -> None

(* A sketch's child must keep the key, so that no row repeats across
   shards. *)
let distribute ~env ?approx expr =
  let (_ : int) = Algebra.arity ~env expr in
  let exchange want e =
    let keys = Option.bind (shard_local ~env e) snd in
    Plan.Exchange { ship = Plan.Statement; want; keys; arity = Algebra.arity ~env e }
  in
  let gathered name pred =
    let x =
      Plan.Exchange
        { ship = Plan.Table name; want = Plan.Rows; keys = None; arity = Option.get (env name) }
    in
    Option.fold pred ~none:x ~some:(fun p -> Plan.Filter (p, x))
  in
  let cluster = { env; leaf = gathered; rows = (fun _ -> exchange_rows) } in
  let one_table = function
    | Algebra.Base _ | Algebra.Select (_, Algebra.Base _) -> true
    | _ -> false
  in
  let physical =
    match approx, expr with
    | ( None,
        Algebra.Project
          ( js,
            ((Algebra.Select (_, Algebra.Aggregate (g, f, e)) | Algebra.Aggregate (g, f, e)) as agg)
          ) )
      when one_table e ->
      let having = match agg with Algebra.Select (h, _) -> Some h | _ -> None in
      grouped cluster js having g f e (fun () -> exchange Plan.Partials e)
    | Some _, e when Option.bind (shard_local ~env e) fst <> None ->
      wrap approx (exchange Plan.Sketch e)
    | None, e when shard_local ~env e <> None -> exchange Plan.Rows e
    | _ -> wrap approx (compile cluster expr)
  in
  { Plan.logical = expr; physical }
