open Expirel_core
open Expirel_storage

type ship = Statement | Table of string
type want = Rows | Partials | Sketch

type exchange = {
  ship : ship;
  want : want;
  keys : Value.t list option;
  arity : int;
}

type t =
  | Exchange of exchange
  | Scan of {
      name : string;
      pred : Predicate.t option;
      access : Access.plan;
    }
  | Filter of Predicate.t * t
  | Project of int list * t
  | Nested_loop of {
      pred : Predicate.t;
      left : t;
      right : t;
    }
  | Hash_join of {
      pairs : (int * int) list;
      pred : Predicate.t;
      left : t;
      right : t;
    }
  | Merge_union of t * t
  | Merge_intersect of t * t
  | Merge_diff of t * t
  | Grouped_aggregate of {
      (* The fused aggregate -> HAVING -> projection pipeline, executed
         over expiration-slice partials (Partial_agg) — the same
         condensed form shards ship to the cluster coordinator.  The
         one aggregate node: the projection and the HAVING predicate
         touch nothing but GROUP BY positions and the aggregate. *)
      group : int list;
      func : Aggregate.func;
      having : Predicate.t option;
      projection : int list;
      child : t;
    }
  | Sketch_count of {
      epsilon : float;
      child : t;
    }
  | Sketch_sample of {
      k : int;
      child : t;
    }

type compiled = {
  logical : Algebra.t;
  physical : t;
}

let operator_names =
  [| "index-scan"; "seq-scan"; "filter"; "project"; "nested-loop";
     "hash-join"; "merge-union"; "merge-intersect"; "merge-diff";
     "aggregate"; "sketch-count"; "sketch-sample"; "exchange" |]

(* A node's place in [operator_names]. *)
let operator = function
  | Scan { access = Access.Index _; _ } -> 0
  | Scan { access = Access.Full_scan | Access.Never_matches; _ } -> 1
  | Filter _ -> 2
  | Project _ -> 3
  | Nested_loop _ -> 4
  | Hash_join _ -> 5
  | Merge_union _ -> 6
  | Merge_intersect _ -> 7
  | Merge_diff _ -> 8
  | Grouped_aggregate _ -> 9
  | Sketch_count _ -> 10
  | Sketch_sample _ -> 11
  | Exchange _ -> 12

let operator_name p = operator_names.(operator p)

let operator_spans =
  Array.map (fun op -> Expirel_obs.Trace.name ("op:" ^ op)) operator_names

let operator_span p = operator_spans.(operator p)

let children = function
  | Scan _ | Exchange _ -> []
  | Filter (_, c)
  | Project (_, c)
  | Grouped_aggregate { child = c; _ }
  | Sketch_count { child = c; _ }
  | Sketch_sample { child = c; _ } ->
    [ c ]
  | Nested_loop { left; right; _ }
  | Hash_join { left; right; _ }
  | Merge_union (left, right)
  | Merge_intersect (left, right)
  | Merge_diff (left, right) ->
    [ left; right ]

(* One node's un-indented line: the physical detail EXPLAIN surfaces —
   access paths at the leaves, equi-join key pairs, residual
   predicates. *)
let describe p =
  let positions js = String.concat "," (List.map string_of_int js) in
  let op = operator_name p in
  match p with
  | Scan { name; pred; access } ->
    (match pred with
     | None -> Printf.sprintf "%s %s" op name
     | Some q ->
       Printf.sprintf "%s %s via %s [%s]" op name
         (Format.asprintf "%a" Access.pp_plan access)
         (Predicate.to_string q))
  | Filter (q, _) -> Printf.sprintf "%s [%s]" op (Predicate.to_string q)
  | Project (js, _) -> Printf.sprintf "%s [%s]" op (positions js)
  | Nested_loop { pred; _ } ->
    (match pred with
     | Predicate.True -> Printf.sprintf "%s [product]" op
     | q -> Printf.sprintf "%s [%s]" op (Predicate.to_string q))
  | Hash_join { pairs; pred; _ } ->
    Printf.sprintf "%s [%s]%s" op
      (String.concat ", "
         (List.map (fun (l, r) -> Printf.sprintf "#%d = right #%d" l r) pairs))
      (match pred with
       | Predicate.True -> ""
       | q -> Printf.sprintf " verify [%s]" (Predicate.to_string q))
  | Merge_union _ | Merge_intersect _ | Merge_diff _ -> op
  | Grouped_aggregate { group; func; having; projection; _ } ->
    Printf.sprintf "%s [group {%s}, %s%s, partials -> (%s)]" op
      (positions group)
      (Aggregate.func_to_string func)
      (match having with
       | None -> ""
       | Some p -> Printf.sprintf ", having [%s]" (Predicate.to_string p))
      (positions projection)
  | Sketch_count { epsilon; _ } -> Printf.sprintf "%s [eps=%g]" op epsilon
  | Sketch_sample { k; _ } -> Printf.sprintf "%s [k=%d]" op k
  | Exchange { ship; want; keys; arity = _ } ->
    let want = match want with Rows -> "rows" | Partials -> "partials" | Sketch -> "sketch" in
    let pinned vs = String.concat "," (List.map Value.to_string vs) in
    Printf.sprintf "%s [%s%s%s]" op want
      (match ship with Statement -> "" | Table name -> ", table " ^ name)
      (Option.fold keys ~none:"" ~some:(fun vs -> Printf.sprintf ", keys {%s}" (pinned vs)))

(* Indented plan tree in the style of Explain.expr_tree, one [line] per
   node. *)
let render line plan =
  let buf = Buffer.create 128 in
  let rec go depth p =
    Printf.bprintf buf "%s%s\n" (String.make (2 * depth) ' ') (line p);
    List.iter (go (depth + 1)) (children p)
  in
  go 0 plan;
  Buffer.contents buf

let to_string plan = render describe plan

(* Every exchange leaf, in the order the tree lists them. *)
let exchanges plan =
  let rec go acc = function
    | Exchange x -> x :: acc
    | p -> List.fold_left go acc (children p)
  in
  List.rev (go [] plan)
