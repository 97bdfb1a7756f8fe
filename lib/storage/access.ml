open Expirel_core

type plan =
  | Full_scan
  | Never_matches
  | Index_eq of {
      column : int;
      value : Value.t;
    }
  | Index_range of {
      column : int;
      lo : Ordered_index.bound;
      hi : Ordered_index.bound;
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
  match Table.index_extrema table ~column with
  | None -> true (* empty index: any plan is trivially complete *)
  | Some (lo, hi) -> value_tag lo = value_tag v && value_tag hi = value_tag v

(* A conjunct of the shape the index can serve: column-vs-constant. *)
let indexable table = function
  | Predicate.Cmp (op, Predicate.Col j, Predicate.Const v)
    when Table.has_index table ~column:j ->
    Some (op, j, v)
  | Predicate.Cmp (op, Predicate.Const v, Predicate.Col j)
    when Table.has_index table ~column:j ->
    let flipped =
      match op with
      | Predicate.Lt -> Predicate.Gt
      | Predicate.Le -> Predicate.Ge
      | Predicate.Gt -> Predicate.Lt
      | Predicate.Ge -> Predicate.Le
      | (Predicate.Eq | Predicate.Neq) as o -> o
    in
    Some (flipped, j, v)
  | _ -> None

let plan table p =
  let cs = Predicate.conjuncts p in
  let null_conjunct = function
    | Predicate.Cmp (_, Predicate.Const Value.Null, _)
    | Predicate.Cmp (_, _, Predicate.Const Value.Null) ->
      true
    | _ -> false
  in
  if List.exists null_conjunct cs then Never_matches
  else
    let candidate c =
      match indexable table c with
      | Some (op, column, v) when homogeneous table column v ->
        (match op with
         | Predicate.Eq -> Some (Index_eq { column; value = v })
         | Predicate.Lt ->
           Some (Index_range
                   { column; lo = Ordered_index.Unbounded;
                     hi = Ordered_index.Exclusive v })
         | Predicate.Le ->
           Some (Index_range
                   { column; lo = Ordered_index.Unbounded;
                     hi = Ordered_index.Inclusive v })
         | Predicate.Gt ->
           Some (Index_range
                   { column; lo = Ordered_index.Exclusive v;
                     hi = Ordered_index.Unbounded })
         | Predicate.Ge ->
           Some (Index_range
                   { column; lo = Ordered_index.Inclusive v;
                     hi = Ordered_index.Unbounded })
         | Predicate.Neq -> None)
      | Some _ | None -> None
    in
    let plans = List.filter_map candidate cs in
    (* Prefer equality probes over ranges... *)
    (match List.find_opt (function Index_eq _ -> true | _ -> false) plans with
     | Some p -> p
     | None ->
       (* ...and intersect every range conjunct on the same column into
          one two-sided range. *)
       let tighter ~sign a b =
         match a, b with
         | Ordered_index.Unbounded, x | x, Ordered_index.Unbounded -> x
         | (Ordered_index.Inclusive va | Ordered_index.Exclusive va),
           (Ordered_index.Inclusive vb | Ordered_index.Exclusive vb) ->
           let c = sign * Value.compare va vb in
           if c > 0 then a
           else if c < 0 then b
           else (
             match a, b with
             | Ordered_index.Exclusive _, _ -> a
             | _, Ordered_index.Exclusive _ -> b
             | _ -> a)
       in
       (* the larger lower bound, the smaller upper bound *)
       let tighter_lo = tighter ~sign:1 and tighter_hi = tighter ~sign:(-1) in
       (match plans with
        | Index_range { column; _ } :: _ ->
          let merged =
            List.fold_left
              (fun (lo, hi) p ->
                match p with
                | Index_range r when r.column = column ->
                  tighter_lo lo r.lo, tighter_hi hi r.hi
                | Index_range _ | Index_eq _ | Full_scan | Never_matches ->
                  lo, hi)
              (Ordered_index.Unbounded, Ordered_index.Unbounded)
              plans
          in
          let lo, hi = merged in
          Index_range { column; lo; hi }
        | (Index_eq _ | Full_scan | Never_matches) :: _ | [] -> Full_scan))

let pp_plan ppf = function
  | Full_scan -> Format.pp_print_string ppf "full-scan"
  | Never_matches -> Format.pp_print_string ppf "never-matches"
  | Index_eq { column; value } ->
    Format.fprintf ppf "index-eq(#%d = %a)" column Value.pp value
  | Index_range { column; lo; hi } ->
    let bound ppf = function
      | Ordered_index.Unbounded -> Format.pp_print_string ppf "_"
      | Ordered_index.Inclusive v -> Format.fprintf ppf "[%a]" Value.pp v
      | Ordered_index.Exclusive v -> Format.fprintf ppf "(%a)" Value.pp v
    in
    Format.fprintf ppf "index-range(#%d: %a..%a)" column bound lo bound hi
