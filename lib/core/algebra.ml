type t =
  | Base of string
  | Select of Predicate.t * t
  | Project of int list * t
  | Product of t * t
  | Union of t * t
  | Join of Predicate.t * t * t
  | Intersect of t * t
  | Diff of t * t
  | Aggregate of int list * Aggregate.func * t

let base name = Base name
let select p e = Select (p, e)
let project js e = Project (js, e)
let product a b = Product (a, b)
let union a b = Union (a, b)
let join p a b = Join (p, a, b)
let intersect a b = Intersect (a, b)
let diff a b = Diff (a, b)
let aggregate group f e = Aggregate (group, f, e)

(* One canonical lower-case name per constructor: Explain's plan trees
   and the observability layer's per-operator timings must agree on
   spelling, so both go through here. *)
let operator_name = function
  | Base _ -> "base"
  | Select _ -> "select"
  | Project _ -> "project"
  | Product _ -> "product"
  | Union _ -> "union"
  | Join _ -> "join"
  | Intersect _ -> "intersect"
  | Diff _ -> "difference"
  | Aggregate _ -> "aggregate"

type env = string -> int option

let check_positions what arity js =
  List.iter
    (fun j ->
      if j < 1 || j > arity then
        Errors.arity_mismatch "%s position %d outside 1..%d" what j arity)
    js

let check_predicate p arity =
  let c = Predicate.max_col p in
  if c > arity then
    Errors.arity_mismatch "predicate column %d outside 1..%d" c arity

let rec arity ~env e =
  match e with
  | Base name ->
    (match env name with
     | Some a -> a
     | None -> raise (Errors.Unknown_relation name))
  | Select (p, e') ->
    let a = arity ~env e' in
    check_predicate p a;
    a
  | Project (js, e') ->
    let a = arity ~env e' in
    if js = [] then Errors.arity_mismatch "empty projection list";
    check_positions "projection" a js;
    List.length js
  | Product (l, r) -> arity ~env l + arity ~env r
  | Join (p, l, r) ->
    let a = arity ~env l + arity ~env r in
    check_predicate p a;
    a
  | Union (l, r) | Intersect (l, r) | Diff (l, r) ->
    let al = arity ~env l and ar = arity ~env r in
    if al <> ar then
      Errors.arity_mismatch "operands not union-compatible: %d vs %d" al ar;
    al
  | Aggregate (group, f, e') ->
    let a = arity ~env e' in
    check_positions "grouping" a group;
    if not (Aggregate.func_arity_ok ~arity:a f) then
      Errors.arity_mismatch "aggregate %s outside 1..%d"
        (Aggregate.func_to_string f) a;
    a + 1

let well_formed ~env e =
  match arity ~env e with
  | a -> Ok a
  | exception Errors.Arity_mismatch msg -> Error msg
  | exception Errors.Unknown_relation name ->
    Error (Printf.sprintf "unknown relation %s" name)

let base_names e =
  let rec collect acc = function
    | Base name -> if List.mem name acc then acc else name :: acc
    | Select (_, e') | Project (_, e') | Aggregate (_, _, e') -> collect acc e'
    | Product (l, r) | Union (l, r) | Join (_, l, r) | Intersect (l, r)
    | Diff (l, r) ->
      collect (collect acc l) r
  in
  List.rev (collect [] e)

let rec map_preds f = function
  | Base _ as e -> e
  | Select (p, e) -> Select (f p, map_preds f e)
  | Project (js, e) -> Project (js, map_preds f e)
  | Aggregate (g, func, e) -> Aggregate (g, func, map_preds f e)
  | Join (p, l, r) -> Join (f p, map_preds f l, map_preds f r)
  | Product (l, r) -> Product (map_preds f l, map_preds f r)
  | Union (l, r) -> Union (map_preds f l, map_preds f r)
  | Intersect (l, r) -> Intersect (map_preds f l, map_preds f r)
  | Diff (l, r) -> Diff (map_preds f l, map_preds f r)

let rec size = function
  | Base _ -> 1
  | Select (_, e') | Project (_, e') | Aggregate (_, _, e') -> 1 + size e'
  | Product (l, r) | Union (l, r) | Join (_, l, r) | Intersect (l, r)
  | Diff (l, r) ->
    1 + size l + size r

let rec equal a b =
  match a, b with
  | Base x, Base y -> String.equal x y
  | Select (p, x), Select (q, y) -> p = q && equal x y
  | Project (js, x), Project (ks, y) -> js = ks && equal x y
  | Product (l1, r1), Product (l2, r2)
  | Union (l1, r1), Union (l2, r2)
  | Intersect (l1, r1), Intersect (l2, r2)
  | Diff (l1, r1), Diff (l2, r2) ->
    equal l1 l2 && equal r1 r2
  | Join (p, l1, r1), Join (q, l2, r2) -> p = q && equal l1 l2 && equal r1 r2
  | Aggregate (g1, f1, x), Aggregate (g2, f2, y) ->
    g1 = g2 && f1 = f2 && equal x y
  | ( Base _ | Select _ | Project _ | Product _ | Union _ | Join _
    | Intersect _ | Diff _ | Aggregate _ ), _ ->
    false

let pp_positions ppf js =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Format.pp_print_int ppf js

let rec pp ppf = function
  | Base name -> Format.pp_print_string ppf name
  | Select (p, e) -> Format.fprintf ppf "sigma_(%a)(%a)" Predicate.pp p pp e
  | Project (js, e) -> Format.fprintf ppf "pi_(%a)(%a)" pp_positions js pp e
  | Product (l, r) -> Format.fprintf ppf "(%a xexp %a)" pp l pp r
  | Union (l, r) -> Format.fprintf ppf "(%a uexp %a)" pp l pp r
  | Join (p, l, r) ->
    Format.fprintf ppf "(%a joinexp_(%a) %a)" pp l Predicate.pp p pp r
  | Intersect (l, r) -> Format.fprintf ppf "(%a nexp %a)" pp l pp r
  | Diff (l, r) -> Format.fprintf ppf "(%a -exp %a)" pp l pp r
  | Aggregate (group, f, e) ->
    Format.fprintf ppf "agg_({%a},%a)(%a)" pp_positions group Aggregate.pp_func
      f pp e

let to_string e = Format.asprintf "%a" pp e
