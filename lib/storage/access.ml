open Expirel_core

type plan =
  | Full_scan
  | Never_matches
  | Index of {
      column : int;
      lo : Texp_run.bound;
      hi : Texp_run.bound;
    }

let value_tag = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 2
  | Value.Float _ -> 3
  | Value.Str _ -> 4

(* Sound only when the index's keys share the constant's constructor:
   Value.compare (the index order) then agrees with Value.cmp (the
   predicate order) on the covered keys. *)
let homogeneous table column v =
  match Texp_run.key_extrema (Table.index table ~column) with
  | None -> true (* empty index: any plan is trivially complete *)
  | Some (lo, hi) -> value_tag lo = value_tag v && value_tag hi = value_tag v

(* A conjunct an index can serve — column against constant — as a key
   range on the column. *)
let range table c =
  let open Texp_run in
  let served =
    match c with
    | Predicate.Cmp (op, Predicate.Col j, Predicate.Const v) -> Some (op, j, v)
    | Predicate.Cmp (op, Predicate.Const v, Predicate.Col j) ->
      Some (Predicate.(match op with Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | o -> o), j, v)
    | _ -> None
  in
  match served with
  | Some (op, column, v) when Table.has_index table ~column && homogeneous table column v ->
    (match op with
     | Predicate.Eq -> Some (column, Inclusive v, Inclusive v)
     | Predicate.Lt -> Some (column, Unbounded, Exclusive v)
     | Predicate.Le -> Some (column, Unbounded, Inclusive v)
     | Predicate.Gt -> Some (column, Exclusive v, Unbounded)
     | Predicate.Ge -> Some (column, Inclusive v, Unbounded)
     | Predicate.Neq -> None)
  | Some _ | None -> None

let entries table = function
  | Index { column; lo; hi } when Table.has_index table ~column ->
    Texp_run.count_range (Table.index table ~column) ~lo ~hi
  | Index _ | Full_scan | Never_matches -> Table.physical_count table

(* An index read examines its key range's rows, live or not; the cut
   scan filters the live rows.  Per row they cost about the same (at
   equal counts, [bench -- access]'s wide range reads the index in 1.1x
   the cut scan's time), and the cut scan's zero-copy chunks win ties. *)
let index_row_cost = 1

(* The larger lower bound or the smaller upper bound ([sign] 1 or -1). *)
let tighter ~sign a b =
  match a, b with
  | Texp_run.Unbounded, x | x, Texp_run.Unbounded -> x
  | (Texp_run.Inclusive va | Texp_run.Exclusive va),
    (Texp_run.Inclusive vb | Texp_run.Exclusive vb) ->
    let c = sign * Value.compare va vb in
    if c > 0 then a
    else if c < 0 then b
    else (match b with Texp_run.Exclusive _ -> b | _ -> a)

(* A column's path: the intersection of its conjuncts' ranges. *)
let intersect ranges column =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (j, l, h) ->
        if j = column then (tighter ~sign:1 lo l, tighter ~sign:(-1) hi h)
        else (lo, hi))
      (Texp_run.Unbounded, Texp_run.Unbounded) ranges
  in
  Index { column; lo; hi }

let path table p ~column =
  let ranges = List.filter_map (range table) (Predicate.conjuncts p) in
  if List.exists (fun (j, _, _) -> j = column) ranges then intersect ranges column
  else Full_scan

let plan table ~tau p =
  let cs = Predicate.conjuncts p in
  let null_conjunct = function
    | Predicate.Cmp (_, Predicate.Const Value.Null, _)
    | Predicate.Cmp (_, _, Predicate.Const Value.Null) ->
      true
    | _ -> false
  in
  if List.exists null_conjunct cs then Never_matches
  else
    let ranges = List.filter_map (range table) cs in
    let path = intersect ranges in
    match List.sort_uniq Int.compare (List.map (fun (j, _, _) -> j) ranges) with
    | [] -> Full_scan
    | columns ->
      List.fold_left
        (fun (best, cost) column ->
          let p = path column in
          let n = index_row_cost * entries table p in
          if n < cost then (p, n) else (best, cost))
        (Full_scan, Table.live_estimate table ~tau)
        columns
      |> fst

let pp_plan ppf = function
  | Full_scan -> Format.pp_print_string ppf "full-scan"
  | Never_matches -> Format.pp_print_string ppf "never-matches"
  | Index { column; lo = Texp_run.Inclusive a; hi = Texp_run.Inclusive b }
    when Value.compare a b = 0 ->
    Format.fprintf ppf "index-eq(#%d = %a)" column Value.pp a
  | Index { column; lo; hi } ->
    let bound ppf = function
      | Texp_run.Unbounded -> Format.pp_print_string ppf "_"
      | Texp_run.Inclusive v -> Format.fprintf ppf "[%a]" Value.pp v
      | Texp_run.Exclusive v -> Format.fprintf ppf "(%a)" Value.pp v
    in
    Format.fprintf ppf "index-range(#%d: %a..%a)" column bound lo bound hi
