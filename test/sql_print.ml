open Expirel_core
open Expirel_sqlx

let value = function
  | Value.Int n -> string_of_int n
  | Value.Float f ->
    (* Enough digits to round-trip through the lexer exactly; the lexer
       needs a digit on both sides of the dot. *)
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Value.Str s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | Value.Bool true -> "TRUE"
  | Value.Bool false -> "FALSE"
  | Value.Null -> "NULL"

let column_ref { Ast.qualifier; column } =
  match qualifier with
  | Some q -> q ^ "." ^ column
  | None -> column

let agg = function
  | Ast.Count_star -> "COUNT(*)"
  | Ast.Sum_of r -> "SUM(" ^ column_ref r ^ ")"
  | Ast.Min_of r -> "MIN(" ^ column_ref r ^ ")"
  | Ast.Max_of r -> "MAX(" ^ column_ref r ^ ")"
  | Ast.Avg_of r -> "AVG(" ^ column_ref r ^ ")"

let operand = function
  | Ast.Col_ref r -> column_ref r
  | Ast.Lit v -> value v
  | Ast.Agg_ref a -> agg a

let cmp = function
  | Ast.Eq -> "="
  | Ast.Neq -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

(* Fully parenthesised: precedence-proof and still parseable. *)
let rec cond = function
  | Ast.Cmp (op, a, b) -> Printf.sprintf "%s %s %s" (operand a) (cmp op) (operand b)
  | Ast.And (a, b) -> Printf.sprintf "(%s AND %s)" (cond a) (cond b)
  | Ast.Or (a, b) -> Printf.sprintf "(%s OR %s)" (cond a) (cond b)
  | Ast.Not a -> Printf.sprintf "NOT (%s)" (cond a)

let select_item = function
  | Ast.Star -> "*"
  | Ast.Column r -> column_ref r
  | Ast.Agg a -> agg a
  | Ast.Approx_count epsilon ->
    "APPROX_COUNT(" ^ value (Value.Float epsilon) ^ ")"
  | Ast.Sample k -> Printf.sprintf "SAMPLE(%d)" k

let source = function
  | Ast.From_table name -> name
  | Ast.From_join (l, r, on) -> Printf.sprintf "%s JOIN %s ON %s" l r (cond on)

let select (s : Ast.select) =
  String.concat ""
    [ "SELECT ";
      String.concat ", " (List.map select_item s.Ast.items);
      " FROM ";
      source s.Ast.source;
      (match s.Ast.where with
       | None -> ""
       | Some c -> " WHERE " ^ cond c);
      (match s.Ast.group_by with
       | [] -> ""
       | refs -> " GROUP BY " ^ String.concat ", " (List.map column_ref refs));
      (match s.Ast.having with
       | None -> ""
       | Some c -> " HAVING " ^ cond c) ]

(* The parser builds set operators left-associatively, so only right
   operands that are themselves set operations need parentheses. *)
let rec query = function
  | Ast.Select s -> select s
  | Ast.Union (a, b) -> set_op a "UNION" b
  | Ast.Except (a, b) -> set_op a "EXCEPT" b
  | Ast.Intersect (a, b) -> set_op a "INTERSECT" b

and set_op a keyword b =
  let right =
    match b with
    | Ast.Select s -> select s
    | Ast.Union _ | Ast.Except _ | Ast.Intersect _ -> "(" ^ query b ^ ")"
  in
  Printf.sprintf "%s %s %s" (query a) keyword right

let query_stmt { Ast.q; at; order_by; limit } =
  String.concat ""
    [ query q;
      (match order_by with
       | [] -> ""
       | keys ->
         " ORDER BY "
         ^ String.concat ", "
             (List.map
                (fun (r, dir) ->
                  column_ref r
                  ^ (match dir with
                     | Ast.Asc -> " ASC"
                     | Ast.Desc -> " DESC"))
                keys));
      (match limit with
       | None -> ""
       | Some n -> " LIMIT " ^ string_of_int n);
      (match at with
       | None -> ""
       | Some n -> " AT " ^ string_of_int n) ]

let statement = function
  | Ast.Create_table (name, columns) ->
    Printf.sprintf "CREATE TABLE %s (%s)" name (String.concat ", " columns)
  | Ast.Drop_table name -> "DROP TABLE " ^ name
  | Ast.Create_index { table; column } ->
    Printf.sprintf "CREATE INDEX ON %s (%s)" table column
  | Ast.Drop_index { table; column } ->
    Printf.sprintf "DROP INDEX ON %s (%s)" table column
  | Ast.Insert { table; values; expires } ->
    Printf.sprintf "INSERT INTO %s VALUES (%s)%s" table
      (String.concat ", " (List.map value values))
      (match expires with
       | Ast.At n -> Printf.sprintf " EXPIRES %d" n
       | Ast.Never -> " EXPIRES NEVER"
       | Ast.Ttl d -> Printf.sprintf " TTL %d" d)
  | Ast.Delete (table, where) ->
    Printf.sprintf "DELETE FROM %s%s" table
      (match where with
       | None -> ""
       | Some c -> " WHERE " ^ cond c)
  | Ast.Advance_to n -> Printf.sprintf "ADVANCE TO %d" n
  | Ast.Tick n -> Printf.sprintf "TICK %d" n
  | Ast.Vacuum -> "VACUUM"
  | Ast.Checkpoint -> "CHECKPOINT"
  | Ast.Query qs -> query_stmt qs
  | Ast.Create_view { name; query = q; maintained } ->
    Printf.sprintf "CREATE %sVIEW %s AS %s"
      (if maintained then "MAINTAINED " else "")
      name (query q)
  | Ast.Show_view name -> "SHOW VIEW " ^ name
  | Ast.Create_trigger { name; table } ->
    Printf.sprintf "CREATE TRIGGER %s ON %s" name table
  | Ast.Drop_trigger name -> "DROP TRIGGER " ^ name
  | Ast.Show_triggers -> "SHOW TRIGGERS"
  | Ast.Create_constraint { name; query = q; min_rows; max_rows } ->
    Printf.sprintf "CREATE CONSTRAINT %s ON %s%s%s" name (query q)
      (match min_rows with
       | Some n -> Printf.sprintf " MIN %d" n
       | None -> "")
      (match max_rows with
       | Some n -> Printf.sprintf " MAX %d" n
       | None -> "")
  | Ast.Drop_constraint name -> "DROP CONSTRAINT " ^ name
  | Ast.Show_constraints -> "SHOW CONSTRAINTS"
  | Ast.Refresh_view name -> "REFRESH VIEW " ^ name
  | Ast.Show_tables -> "SHOW TABLES"
  | Ast.Show_views -> "SHOW VIEWS"
  | Ast.Show_time -> "SHOW NOW"
  | Ast.Show_horizon None -> "SHOW HORIZON"
  | Ast.Show_horizon (Some t) -> "SHOW HORIZON FOR " ^ t
  | Ast.Explain q -> "EXPLAIN " ^ query q
  | Ast.Explain_analyze q -> "EXPLAIN ANALYZE " ^ query q
