type operand =
  | Col of int
  | Const of Value.t

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | True
  | False
  | Cmp of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t

let eq_cols j k = Cmp (Eq, Col j, Col k)
let eq_const j a = Cmp (Eq, Col j, Const a)

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> False
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

let operand_value t = function
  | Col j -> Tuple.attr t j
  | Const v -> v

let cmp_holds op a b =
  match Value.cmp a b with
  | None -> false
  | Some c ->
    (match op with
     | Eq -> c = 0
     | Neq -> c <> 0
     | Lt -> c < 0
     | Le -> c <= 0
     | Gt -> c > 0
     | Ge -> c >= 0)

let rec eval p t =
  match p with
  | True -> true
  | False -> false
  | Cmp (op, x, y) -> cmp_holds op (operand_value t x) (operand_value t y)
  | And (a, b) -> eval a t && eval b t
  | Or (a, b) -> eval a t || eval b t
  | Not a -> not (eval a t)

(* Closure-compiled form for the executor's batches: the predicate
   tree is walked once, and the per-row work is a chain of direct
   closure calls over a column accessor — no tuple is materialised per
   row.  Must agree with [eval] on every input (the qcheck executor ≡
   naive law pins this), so each comparison goes through the same [cmp_holds]. *)
let compile p =
  let operand_fn = function
    | Col j -> fun get -> get j
    | Const v -> fun _ -> v
  in
  let rec go = function
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Cmp (op, x, y) ->
      let fx = operand_fn x and fy = operand_fn y in
      fun get -> cmp_holds op (fx get) (fy get)
    | And (a, b) ->
      let fa = go a and fb = go b in
      fun get -> fa get && fb get
    | Or (a, b) ->
      let fa = go a and fb = go b in
      fun get -> fa get || fb get
    | Not a ->
      let fa = go a in
      fun get -> not (fa get)
  in
  go p

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | True -> []
  | p -> [ p ]

type equi_split = {
  pairs : (int * int) list;
  residual : t;
}

let equi_split ~left_arity p =
  let classify (pairs, rest) c =
    match c with
    | Cmp (Eq, Col j, Col k) when j <= left_arity && k > left_arity ->
      (j, k - left_arity) :: pairs, rest
    | Cmp (Eq, Col k, Col j) when j <= left_arity && k > left_arity ->
      (j, k - left_arity) :: pairs, rest
    | c -> pairs, c :: rest
  in
  let pairs, rest = List.fold_left classify ([], []) (conjuncts p) in
  if pairs = [] then None
  else Some { pairs = List.rev pairs; residual = conj (List.rev rest) }

let operand_col = function
  | Col j -> j
  | Const _ -> 0

let rec max_col = function
  | True | False -> 0
  | Cmp (_, x, y) -> max (operand_col x) (operand_col y)
  | And (a, b) | Or (a, b) -> max (max_col a) (max_col b)
  | Not a -> max_col a

let shift_operand n = function
  | Col j -> Col (j + n)
  | Const _ as c -> c

let rec shift n = function
  | True -> True
  | False -> False
  | Cmp (op, x, y) -> Cmp (op, shift_operand n x, shift_operand n y)
  | And (a, b) -> And (shift n a, shift n b)
  | Or (a, b) -> Or (shift n a, shift n b)
  | Not a -> Not (shift n a)

let rec fold_cols f acc = function
  | True | False -> acc
  | Cmp (_, x, y) ->
    let acc = match x with Col j -> f acc j | Const _ -> acc in
    (match y with Col j -> f acc j | Const _ -> acc)
  | And (a, b) | Or (a, b) -> fold_cols f (fold_cols f acc a) b
  | Not a -> fold_cols f acc a

let columns_within n p = fold_cols (fun ok j -> ok && j <= n) true p
let columns_between lo hi p = fold_cols (fun ok j -> ok && lo <= j && j <= hi) true p

let rec map_consts f = function
  | (True | False) as p -> p
  | Cmp (op, x, y) ->
    let const = function
      | Const v -> Const (f v)
      | Col _ as c -> c
    in
    Cmp (op, const x, const y)
  | And (a, b) -> And (map_consts f a, map_consts f b)
  | Or (a, b) -> Or (map_consts f a, map_consts f b)
  | Not a -> Not (map_consts f a)

let rename f p =
  let rename_operand = function
    | Col j -> Option.map (fun j' -> Col j') (f j)
    | Const _ as c -> Some c
  in
  let rec go = function
    | True -> Some True
    | False -> Some False
    | Cmp (op, x, y) ->
      (match rename_operand x, rename_operand y with
       | Some x', Some y' -> Some (Cmp (op, x', y'))
       | _ -> None)
    | And (a, b) ->
      (match go a, go b with
       | Some a', Some b' -> Some (And (a', b'))
       | _ -> None)
    | Or (a, b) ->
      (match go a, go b with
       | Some a', Some b' -> Some (Or (a', b'))
       | _ -> None)
    | Not a -> Option.map (fun a' -> Not a') (go a)
  in
  go p

let pp_cmp ppf = function
  | Eq -> Format.pp_print_string ppf "="
  | Neq -> Format.pp_print_string ppf "<>"
  | Lt -> Format.pp_print_string ppf "<"
  | Le -> Format.pp_print_string ppf "<="
  | Gt -> Format.pp_print_string ppf ">"
  | Ge -> Format.pp_print_string ppf ">="

let pp_operand ppf = function
  | Col j -> Format.fprintf ppf "#%d" j
  | Const v -> Value.pp ppf v

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (op, x, y) ->
    Format.fprintf ppf "%a %a %a" pp_operand x pp_cmp op pp_operand y
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp a pp b
  | Not a -> Format.fprintf ppf "not %a" pp a

let to_string p = Format.asprintf "%a" pp p
