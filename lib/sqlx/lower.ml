open Expirel_core

exception Error of string

type catalog = string -> string list option

type compiled = {
  expr : Algebra.t;
  columns : string list;
  approx : Expirel_exec.Approx.spec option;
}

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* A resolution scope: the attributes visible in a select, each tagged
   with the table it came from, in attribute order. *)
type scope = {
  attrs : (string * string) list;  (* (table, column), 1-based order *)
}

let scope_of_table ~catalog name =
  match catalog name with
  | Some cols -> { attrs = List.map (fun c -> name, c) cols }
  | None -> error "unknown table %s" name

let scope_join a b = { attrs = a.attrs @ b.attrs }

let resolve scope { Ast.qualifier; column } =
  let matches =
    List.filteri
      (fun _ (table, col) ->
        String.equal col column
        && (match qualifier with
            | None -> true
            | Some q -> String.equal q table))
      scope.attrs
  in
  let name =
    match qualifier with
    | Some q -> q ^ "." ^ column
    | None -> column
  in
  match matches with
  | [ (table, col) ] ->
    let rec position i = function
      | [] -> assert false
      | (t, c) :: rest ->
        if String.equal t table && String.equal c col then i
        else position (i + 1) rest
    in
    position 1 scope.attrs
  | [] -> error "unknown column %s" name
  | _ :: _ :: _ -> error "ambiguous column %s" name

(* Output label for an attribute: qualified when the bare name appears in
   more than one table of the scope. *)
let label scope (table, column) =
  let occurrences =
    List.length (List.filter (fun (_, c) -> String.equal c column) scope.attrs)
  in
  if occurrences > 1 then table ^ "." ^ column else column

let lower_cmp = function
  | Ast.Eq -> Predicate.Eq
  | Ast.Neq -> Predicate.Neq
  | Ast.Lt -> Predicate.Lt
  | Ast.Le -> Predicate.Le
  | Ast.Gt -> Predicate.Gt
  | Ast.Ge -> Predicate.Ge

let lower_operand ?agg scope = function
  | Ast.Col_ref r -> Predicate.Col (resolve scope r)
  | Ast.Lit v -> Predicate.Const v
  | Ast.Agg_ref a ->
    (match agg with
     | Some resolve_agg -> Predicate.Col (resolve_agg a)
     | None -> error "aggregates are only allowed in HAVING")

let rec lower_cond ?agg scope = function
  | Ast.Cmp (op, a, b) ->
    (* Resolve left-to-right so error messages name the first offender. *)
    let a' = lower_operand ?agg scope a in
    let b' = lower_operand ?agg scope b in
    Predicate.Cmp (lower_cmp op, a', b')
  | Ast.And (a, b) -> Predicate.And (lower_cond ?agg scope a, lower_cond ?agg scope b)
  | Ast.Or (a, b) -> Predicate.Or (lower_cond ?agg scope a, lower_cond ?agg scope b)
  | Ast.Not a -> Predicate.Not (lower_cond ?agg scope a)

let lower_cond_for_table ~columns ~table c =
  lower_cond { attrs = List.map (fun col -> table, col) columns } c

let agg_func scope = function
  | Ast.Count_star -> Aggregate.Count, "count"
  | Ast.Sum_of r -> Aggregate.Sum (resolve scope r), "sum(" ^ r.Ast.column ^ ")"
  | Ast.Min_of r -> Aggregate.Min (resolve scope r), "min(" ^ r.Ast.column ^ ")"
  | Ast.Max_of r -> Aggregate.Max (resolve scope r), "max(" ^ r.Ast.column ^ ")"
  | Ast.Avg_of r -> Aggregate.Avg (resolve scope r), "avg(" ^ r.Ast.column ^ ")"

let lower_select ~catalog (s : Ast.select) =
  let scope, source_expr =
    match s.Ast.source with
    | Ast.From_table name -> scope_of_table ~catalog name, Algebra.base name
    | Ast.From_join (left, right, on) ->
      let ls = scope_of_table ~catalog left in
      let rs = scope_of_table ~catalog right in
      let joined = scope_join ls rs in
      joined, Algebra.join (lower_cond joined on) (Algebra.base left) (Algebra.base right)
  in
  let filtered =
    match s.Ast.where with
    | None -> source_expr
    | Some c -> Algebra.select (lower_cond scope c) source_expr
  in
  let approxes =
    List.filter_map
      (function
        | Ast.Approx_count epsilon ->
          Some (Expirel_exec.Approx.Count { epsilon })
        | Ast.Sample k -> Some (Expirel_exec.Approx.Sample { k })
        | Ast.Star | Ast.Column _ | Ast.Agg _ -> None)
      s.Ast.items
  in
  match approxes with
  | [ spec ] ->
    (* The sketch answers the whole select: the item must stand alone,
       and grouping machinery has nothing to attach to. *)
    (match spec with
     | Expirel_exec.Approx.Count { epsilon } ->
       if not (epsilon > 0. && epsilon < 1.) then
         error "APPROX_COUNT epsilon must be in (0, 1)"
     | Expirel_exec.Approx.Sample { k } ->
       if k < 1 then error "SAMPLE needs k >= 1");
    if List.length s.Ast.items > 1 then
      error "APPROX_COUNT/SAMPLE cannot be mixed with other select items";
    if s.Ast.group_by <> [] then
      error "APPROX_COUNT/SAMPLE cannot be combined with GROUP BY";
    if s.Ast.having <> None then
      error "APPROX_COUNT/SAMPLE cannot be combined with HAVING";
    let columns =
      Expirel_exec.Approx.columns spec
        ~child:(List.map (label scope) scope.attrs)
    in
    { expr = filtered; columns; approx = Some spec }
  | _ :: _ :: _ -> error "at most one APPROX_COUNT/SAMPLE per select list"
  | [] ->
  let aggs =
    List.filter_map
      (function
        | Ast.Agg a -> Some a
        | Ast.Star | Ast.Column _ | Ast.Approx_count _ | Ast.Sample _ -> None)
      s.Ast.items
  in
  match aggs with
  | [] ->
    if s.Ast.group_by <> [] then
      error "GROUP BY without an aggregate in the select list"
    else if s.Ast.having <> None then
      error "HAVING requires GROUP BY and an aggregate"
    else if List.exists (fun i -> i = Ast.Star) s.Ast.items then begin
      if List.length s.Ast.items > 1 then error "* mixed with other items"
      else
        { expr = filtered;
          columns = List.map (label scope) scope.attrs;
          approx = None
        }
    end
    else begin
      let refs =
        List.map
          (function
            | Ast.Column r -> r
            | Ast.Star | Ast.Agg _ | Ast.Approx_count _ | Ast.Sample _ ->
              assert false)
          s.Ast.items
      in
      let positions = List.map (resolve scope) refs in
      let columns =
        List.map (fun p -> label scope (List.nth scope.attrs (p - 1))) positions
      in
      { expr = Algebra.project positions filtered; columns; approx = None }
    end
  | [ agg ] ->
    (* An empty GROUP BY lowers to agg^exp over the single global
       partition: COUNT/SUM/MIN/MAX/AVG over the whole live relation. *)
    let group_positions = List.map (resolve scope) s.Ast.group_by in
    let func, agg_label = agg_func scope agg in
    let inner_arity = List.length scope.attrs in
    let aggregated = Algebra.aggregate group_positions func filtered in
    (* HAVING filters whole groups: a selection over agg^exp's output,
       where the aggregate value sits at position inner_arity + 1. *)
    let aggregated =
      match s.Ast.having with
      | None -> aggregated
      | Some c ->
        let resolve_agg a =
          if a = agg then inner_arity + 1
          else error "HAVING may only use the select list's aggregate"
        in
        let check_grouped = function
          | Ast.Col_ref r ->
            let pos = resolve scope r in
            if not (List.mem pos group_positions) then
              error "HAVING column %s is not in GROUP BY" r.Ast.column
          | Ast.Lit _ | Ast.Agg_ref _ -> ()
        in
        let rec walk = function
          | Ast.Cmp (_, a, b) -> check_grouped a; check_grouped b
          | Ast.And (a, b) | Ast.Or (a, b) -> walk a; walk b
          | Ast.Not a -> walk a
        in
        walk c;
        Algebra.select (lower_cond ~agg:resolve_agg scope c) aggregated
    in
    (* Project the selected items out of agg^exp's alpha(R)+1 columns. *)
    let item_position = function
      | Ast.Agg _ -> inner_arity + 1, agg_label
      | Ast.Column r ->
        let p = resolve scope r in
        if not (List.mem p group_positions) then
          error "column %s is not in GROUP BY" r.Ast.column
        else p, label scope (List.nth scope.attrs (p - 1))
      | Ast.Star -> error "* cannot be mixed with aggregates"
      | Ast.Approx_count _ | Ast.Sample _ -> assert false
    in
    let resolved = List.map item_position s.Ast.items in
    { expr = Algebra.project (List.map fst resolved) aggregated;
      columns = List.map snd resolved;
      approx = None
    }
  | _ :: _ :: _ -> error "at most one aggregate per select list"

(* ---------- ORDER BY resolution ---------- *)

(* Resolve an ORDER BY reference against the select's output column
   labels (which the lowering above produced: bare names, qualified when
   a bare name would be ambiguous, or aggregate labels like "sum(deg)").
   An exact label match wins outright; failing that, a bare reference
   also matches a qualified label by suffix — but only a unique one, so
   [ORDER BY uid] over columns [pol.uid; geo.uid] is an error instead of
   silently picking the first. *)
let order_by_position ~columns { Ast.qualifier; column } =
  let name =
    match qualifier with
    | Some q -> q ^ "." ^ column
    | None -> column
  in
  let positions p =
    List.concat
      (List.mapi (fun i l -> if p l then [ i + 1 ] else []) columns)
  in
  match positions (String.equal name) with
  | [ i ] -> i
  | _ :: _ :: _ -> error "ambiguous ORDER BY column %s" name
  | [] ->
    let suffix = "." ^ column in
    let has_suffix label =
      qualifier = None
      && String.length label > String.length suffix
      && String.sub label
           (String.length label - String.length suffix)
           (String.length suffix)
         = suffix
    in
    (match positions has_suffix with
     | [ i ] -> i
     | [] -> error "unknown ORDER BY column %s" name
     | _ :: _ :: _ -> error "ambiguous ORDER BY column %s" name)

let rec lower_query ~catalog = function
  | Ast.Select s -> lower_select ~catalog s
  | Ast.Union (a, b) -> set_op ~catalog "UNION" Algebra.union a b
  | Ast.Except (a, b) -> set_op ~catalog "EXCEPT" Algebra.diff a b
  | Ast.Intersect (a, b) -> set_op ~catalog "INTERSECT" Algebra.intersect a b

and set_op ~catalog name make a b =
  let ca = lower_query ~catalog a and cb = lower_query ~catalog b in
  if ca.approx <> None || cb.approx <> None then
    error "APPROX_COUNT/SAMPLE cannot appear under %s" name
  else if List.length ca.columns <> List.length cb.columns then
    error "%s operands have different widths (%d vs %d)" name
      (List.length ca.columns) (List.length cb.columns)
  else { expr = make ca.expr cb.expr; columns = ca.columns; approx = None }
