type rule = {
  name : string;
  apply : env:Algebra.env -> Algebra.t -> Algebra.t option;
}


let select_merge =
  let apply ~env:_ = function
    | Algebra.Select (p, Algebra.Select (q, e)) ->
      Some (Algebra.Select (Predicate.And (q, p), e))
    | Algebra.Select (p, Algebra.Join (q, l, r)) ->
      Some (Algebra.Join (Predicate.And (q, p), l, r))
    | _ -> None
  in
  { name = "select-merge"; apply }

let select_past_project =
  let apply ~env:_ = function
    | Algebra.Select (p, Algebra.Project (js, e)) ->
      let positions = Array.of_list js in
      let rename i =
        if 1 <= i && i <= Array.length positions then Some positions.(i - 1)
        else None
      in
      Option.map
        (fun p' -> Algebra.Project (js, Algebra.Select (p', e)))
        (Predicate.rename rename p)
    | _ -> None
  in
  { name = "select-past-project"; apply }

(* Splits predicate conjuncts over a product/join boundary: conjuncts
   mentioning only left columns go left, only right columns go right
   (shifted), the rest stay at the node. *)
let split_over ~left_arity ~right_arity p =
  let classify (to_l, to_r, stay) c =
    if Predicate.columns_within left_arity c then c :: to_l, to_r, stay
    else if Predicate.columns_between (left_arity + 1) (left_arity + right_arity) c
    then to_l, Predicate.shift (-left_arity) c :: to_r, stay
    else to_l, to_r, c :: stay
  in
  let to_l, to_r, stay =
    List.fold_left classify ([], [], []) (Predicate.conjuncts p)
  in
  if to_l = [] && to_r = [] then None else Some (to_l, to_r, stay)

let push_into side_conjuncts e =
  match side_conjuncts with
  | [] -> e
  | cs -> Algebra.Select (Predicate.conj cs, e)

let select_pushdown_product =
  let apply ~env node =
    let arities l r = Algebra.arity ~env l, Algebra.arity ~env r in
    match node with
    | Algebra.Select (p, Algebra.Product (l, r)) ->
      let left_arity, right_arity = arities l r in
      Option.map
        (fun (to_l, to_r, stay) ->
          let inner = Algebra.Product (push_into to_l l, push_into to_r r) in
          push_into stay inner)
        (split_over ~left_arity ~right_arity p)
    | Algebra.Join (p, l, r) ->
      let left_arity, right_arity = arities l r in
      Option.map
        (fun (to_l, to_r, stay) ->
          match stay with
          | [] -> Algebra.Product (push_into to_l l, push_into to_r r)
          | _ ->
            Algebra.Join (Predicate.conj stay, push_into to_l l, push_into to_r r))
        (split_over ~left_arity ~right_arity p)
    | _ -> None
  in
  { name = "select-pushdown-product"; apply }

let distribute name make =
  let apply ~env:_ = function
    | Algebra.Select (p, e) ->
      (match make p e with
       | Some e' -> Some e'
       | None -> None)
    | _ -> None
  in
  { name; apply }

let select_pushdown_union =
  distribute "select-pushdown-union" (fun p -> function
    | Algebra.Union (l, r) ->
      Some (Algebra.Union (Algebra.Select (p, l), Algebra.Select (p, r)))
    | _ -> None)

let select_pushdown_intersect =
  distribute "select-pushdown-intersect" (fun p -> function
    | Algebra.Intersect (l, r) ->
      Some (Algebra.Intersect (Algebra.Select (p, l), Algebra.Select (p, r)))
    | _ -> None)

let select_pushdown_diff =
  distribute "select-pushdown-diff" (fun p -> function
    | Algebra.Diff (l, r) ->
      Some (Algebra.Diff (Algebra.Select (p, l), Algebra.Select (p, r)))
    | _ -> None)

let diff_pullup_product =
  let apply ~env:_ = function
    | Algebra.Product (Algebra.Diff (a, b), c) ->
      Some (Algebra.Diff (Algebra.Product (a, c), Algebra.Product (b, c)))
    | Algebra.Product (c, Algebra.Diff (a, b)) ->
      Some (Algebra.Diff (Algebra.Product (c, a), Algebra.Product (c, b)))
    | _ -> None
  in
  { name = "diff-pullup-product"; apply }

let project_pushdown_union =
  let apply ~env:_ = function
    | Algebra.Project (js, Algebra.Union (l, r)) ->
      Some (Algebra.Union (Algebra.Project (js, l), Algebra.Project (js, r)))
    | _ -> None
  in
  { name = "project-pushdown-union"; apply }

let project_merge =
  let apply ~env:_ = function
    | Algebra.Project (js, Algebra.Project (ks, e)) ->
      let inner = Array.of_list ks in
      Some (Algebra.Project (List.map (fun j -> inner.(j - 1)) js, e))
    | _ -> None
  in
  { name = "project-merge"; apply }

let default_rules =
  [ select_merge;
    project_merge;
    select_past_project;
    select_pushdown_union;
    select_pushdown_intersect;
    select_pushdown_diff;
    select_pushdown_product;
    project_pushdown_union;
    diff_pullup_product
  ]

let apply_once ~env rule expr =
  let rec go e =
    match rule.apply ~env e with
    | Some e' -> Some e'
    | None ->
      (match e with
       | Algebra.Base _ -> None
       | Algebra.Select (p, e1) ->
         Option.map (fun e1' -> Algebra.Select (p, e1')) (go e1)
       | Algebra.Project (js, e1) ->
         Option.map (fun e1' -> Algebra.Project (js, e1')) (go e1)
       | Algebra.Aggregate (g, f, e1) ->
         Option.map (fun e1' -> Algebra.Aggregate (g, f, e1')) (go e1)
       | Algebra.Product (l, r) -> go_pair l r (fun l' r' -> Algebra.Product (l', r'))
       | Algebra.Union (l, r) -> go_pair l r (fun l' r' -> Algebra.Union (l', r'))
       | Algebra.Join (p, l, r) ->
         go_pair l r (fun l' r' -> Algebra.Join (p, l', r'))
       | Algebra.Intersect (l, r) ->
         go_pair l r (fun l' r' -> Algebra.Intersect (l', r'))
       | Algebra.Diff (l, r) -> go_pair l r (fun l' r' -> Algebra.Diff (l', r')))
  and go_pair l r rebuild =
    match go l with
    | Some l' -> Some (rebuild l' r)
    | None -> Option.map (fun r' -> rebuild l r') (go r)
  in
  go expr

let rewrite ?(max_passes = 50) ?(rules = default_rules) ~env expr =
  let counts = Hashtbl.create 8 in
  let bump name =
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let try_rules e =
    List.find_map
      (fun rule ->
        Option.map (fun e' -> rule.name, e') (rule.apply ~env e))
      rules
  in
  (* One pass: children first, then this node (repeatedly, while rules
     keep firing here). *)
  let rec pass changed e =
    let e =
      match e with
      | Algebra.Base _ -> e
      | Algebra.Select (p, e1) -> Algebra.Select (p, pass changed e1)
      | Algebra.Project (js, e1) -> Algebra.Project (js, pass changed e1)
      | Algebra.Aggregate (g, f, e1) -> Algebra.Aggregate (g, f, pass changed e1)
      | Algebra.Product (l, r) -> Algebra.Product (pass changed l, pass changed r)
      | Algebra.Union (l, r) -> Algebra.Union (pass changed l, pass changed r)
      | Algebra.Join (p, l, r) -> Algebra.Join (p, pass changed l, pass changed r)
      | Algebra.Intersect (l, r) ->
        Algebra.Intersect (pass changed l, pass changed r)
      | Algebra.Diff (l, r) -> Algebra.Diff (pass changed l, pass changed r)
    in
    match try_rules e with
    | Some (name, e') ->
      bump name;
      changed := true;
      e'
    | None -> e
  in
  let rec loop n e =
    if n >= max_passes then e
    else
      let changed = ref false in
      let e' = pass changed e in
      if !changed then loop (n + 1) e' else e'
  in
  let result = loop 0 expr in
  result, Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts []
