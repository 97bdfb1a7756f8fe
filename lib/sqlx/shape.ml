open Expirel_core

type t = {
  key : string;
  literals : Value.t array;
}

let is_digit c = c >= '0' && c <= '9'

(* The slot marker: a byte the lexer rejects, so no text it accepts
   holds one, and a key's slots cannot collide with its text. *)
let marker = '\000'

(* A string body with each doubled quote read as one. *)
let unescape body =
  let b = Buffer.create (String.length body) in
  let rec go i =
    if i < String.length body then begin
      Buffer.add_char b body.[i];
      go (if body.[i] = '\'' then i + 2 else i + 1)
    end
  in
  go 0;
  Buffer.contents b

let scan text =
  let n = String.length text in
  let key = Buffer.create (n + 8) in
  let literals = ref [] in
  (* Copies [text] from [from] up to the literal at [start], then its
     slot. *)
  let slot from start kind literal =
    Buffer.add_substring key text from (start - from);
    Buffer.add_char key marker;
    Buffer.add_char key kind;
    literals := literal :: !literals
  in
  let rec digits j = if j < n && is_digit (String.unsafe_get text j) then digits (j + 1) else j in
  let rec line j = if j < n && String.unsafe_get text j <> '\n' then line (j + 1) else j in
  let rec ident j =
    if j < n then
      match String.unsafe_get text j with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> ident (j + 1)
      | _ -> j
    else j
  in
  (* [from]: the first byte not yet copied to the key *)
  let rec go from i =
    if i >= n then begin
      Buffer.add_substring key text from (n - from);
      Some { key = Buffer.contents key; literals = Array.of_list (List.rev !literals) }
    end
    else
      match String.unsafe_get text i with
      | '\000' -> None
      | '-' when i + 1 < n && String.unsafe_get text (i + 1) = '-' -> go from (line (i + 2))
      | '\'' -> quoted from i (i + 1) false
      | '-' when i + 1 < n && is_digit (String.unsafe_get text (i + 1)) -> number from i
      | '-' -> None
      | '0' .. '9' -> number from i
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> go from (ident (i + 1))
      | _ -> go from (i + 1)
  (* A string literal from the quote at [start]; [doubled] when it
     holds a [''] to unescape. *)
  and quoted from start i doubled =
    if i >= n then None
    else if String.unsafe_get text i <> '\'' then quoted from start (i + 1) doubled
    else if i + 1 < n && String.unsafe_get text (i + 1) = '\'' then
      quoted from start (i + 2) true
    else begin
      let body = String.sub text (start + 1) (i - start - 1) in
      let body = if doubled then unescape body else body in
      slot from start 's' (Value.Str body);
      go (i + 1) (i + 1)
    end
  and number from start =
    let int_end = digits (start + 1) in
    if int_end + 1 < n && String.unsafe_get text int_end = '.'
       && is_digit (String.unsafe_get text (int_end + 1))
    then begin
      let stop = digits (int_end + 1) in
      match float_of_string_opt (String.sub text start (stop - start)) with
      | Some f ->
        slot from start 'f' (Value.Float f);
        go stop stop
      | None -> None
    end
    else
      match int_of_string_opt (String.sub text start (int_end - start)) with
      | Some k ->
        slot from start 'i' (Value.Int k);
        go int_end int_end
      | None -> None
  in
  go 0 0

(* ---------- templates ---------- *)

(* One walk over a statement's literal sites in source order — the
   order the parser reads them in — rebuilding the statement from what
   each site's function answers: a value operand or INSERT value
   ([value]), an integer clause argument ([int]: LIMIT, AT, TTL,
   EXPIRES, ADVANCE TO, TICK, SAMPLE, MIN, MAX) or APPROX_COUNT's bound
   ([float]).  [planned] tells a site of the part that plans.  [TRUE],
   [FALSE] and [NULL] operands are no sites.  [Exit] when a bound
   SAMPLE size or APPROX_COUNT bound is one the parser refuses. *)
type sites = {
  value : planned:bool -> Value.t -> Value.t;
  int : planned:bool -> int -> int;
  float : planned:bool -> float -> float;
}

let is_slot = function
  | Value.Int _ | Value.Float _ | Value.Str _ -> true
  | Value.Bool _ | Value.Null -> false

let operand m ~planned = function
  | Ast.Lit v when is_slot v -> Ast.Lit (m.value ~planned v)
  | o -> o

let rec cond m ~planned = function
  | Ast.Cmp (op, a, b) ->
    let a = operand m ~planned a in
    Ast.Cmp (op, a, operand m ~planned b)
  | Ast.And (a, b) ->
    let a = cond m ~planned a in
    Ast.And (a, cond m ~planned b)
  | Ast.Or (a, b) ->
    let a = cond m ~planned a in
    Ast.Or (a, cond m ~planned b)
  | Ast.Not a -> Ast.Not (cond m ~planned a)

let item m ~planned = function
  | Ast.Approx_count e ->
    let e = m.float ~planned e in
    if not (e > 0. && e < 1.) then raise Exit;
    Ast.Approx_count e
  | Ast.Sample k ->
    let k = m.int ~planned k in
    if k < 1 then raise Exit;
    Ast.Sample k
  | (Ast.Star | Ast.Column _ | Ast.Agg _) as i -> i

let rec query m ~planned = function
  | Ast.Select s ->
    let items = List.map (item m ~planned) s.Ast.items in
    let source =
      match s.Ast.source with
      | Ast.From_join (l, r, on) -> Ast.From_join (l, r, cond m ~planned on)
      | Ast.From_table _ as src -> src
    in
    let where = Option.map (cond m ~planned) s.Ast.where in
    let having = Option.map (cond m ~planned) s.Ast.having in
    Ast.Select { s with items; source; where; having }
  | Ast.Union (a, b) ->
    let a = query m ~planned a in
    Ast.Union (a, query m ~planned b)
  | Ast.Except (a, b) ->
    let a = query m ~planned a in
    Ast.Except (a, query m ~planned b)
  | Ast.Intersect (a, b) ->
    let a = query m ~planned a in
    Ast.Intersect (a, query m ~planned b)

let statement m = function
  | Ast.Insert { table; values; expires } ->
    let values =
      List.map (fun v -> if is_slot v then m.value ~planned:false v else v) values
    in
    let expires =
      match expires with
      | Ast.At n -> Ast.At (m.int ~planned:false n)
      | Ast.Ttl d -> Ast.Ttl (m.int ~planned:false d)
      | Ast.Never -> Ast.Never
    in
    Ast.Insert { table; values; expires }
  | Ast.Delete (table, c) -> Ast.Delete (table, Option.map (cond m ~planned:true) c)
  | Ast.Advance_to n -> Ast.Advance_to (m.int ~planned:false n)
  | Ast.Tick n -> Ast.Tick (m.int ~planned:false n)
  | Ast.Query { q; at; order_by; limit } ->
    let q = query m ~planned:true q in
    let limit = Option.map (m.int ~planned:false) limit in
    let at = Option.map (m.int ~planned:false) at in
    Ast.Query { q; at; order_by; limit }
  | Ast.Create_view v -> Ast.Create_view { v with query = query m ~planned:false v.query }
  | Ast.Create_constraint c ->
    let q = query m ~planned:false c.query in
    let min_rows = Option.map (m.int ~planned:false) c.min_rows in
    let max_rows = Option.map (m.int ~planned:false) c.max_rows in
    Ast.Create_constraint { c with query = q; min_rows; max_rows }
  | Ast.Explain q -> Ast.Explain (query m ~planned:true q)
  | Ast.Explain_analyze q -> Ast.Explain_analyze (query m ~planned:true q)
  | ( Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _ | Ast.Drop_index _
    | Ast.Vacuum | Ast.Checkpoint | Ast.Show_view _ | Ast.Create_trigger _
    | Ast.Drop_trigger _ | Ast.Show_triggers | Ast.Drop_constraint _
    | Ast.Show_constraints | Ast.Refresh_view _ | Ast.Show_tables | Ast.Show_views
    | Ast.Show_time | Ast.Show_horizon _ ) as s -> s

(* Literals as a text writes them: a float by its bits, so [0.0] and
   [-0.0] stay apart. *)
let same_literal a b =
  match a, b with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Str x, Value.Str y -> String.equal x y
  | _ -> false

type template = {
  parsed : Ast.statement;
  own : Value.t array;
      (* [parsed]'s literals when [binds], else the text's scanned ones *)
  binds : bool;  (* [parsed]'s sites are the text's slots, in order *)
  planned : bool array;  (* per slot: in the part that plans *)
  pointer : bool array;  (* per slot: a value site, substituted by pointer *)
}

let template parsed scanned =
  let found = ref [] in
  let record v ~planned ~pointer = found := (v, planned, pointer) :: !found in
  let collect =
    { value = (fun ~planned v -> record v ~planned ~pointer:true; v);
      int = (fun ~planned n -> record (Value.Int n) ~planned ~pointer:false; n);
      float = (fun ~planned f -> record (Value.Float f) ~planned ~pointer:false; f)
    }
  in
  ignore (statement collect parsed);
  let found = Array.of_list (List.rev !found) in
  let binds =
    Array.length found = Array.length scanned
    && Array.for_all2 (fun (v, _, _) s -> same_literal v s) found scanned
  in
  let tpl =
    if binds then
      { parsed;
        own = Array.map (fun (v, _, _) -> v) found;
        binds;
        planned = Array.map (fun (_, p, _) -> p) found;
        pointer = Array.map (fun (_, _, p) -> p) found
      }
    else
      { parsed;
        own = scanned;
        binds;
        planned = Array.map (fun _ -> true) scanned;
        pointer = Array.map (fun _ -> false) scanned
      }
  in
  (tpl, tpl.own)

let bind tpl literals =
  if Array.length literals <> Array.length tpl.own then None
  else if not tpl.binds then
    if Array.for_all2 same_literal tpl.own literals then Some tpl.parsed else None
  else begin
    let next = ref 0 in
    let take () =
      let v = literals.(!next) in
      incr next;
      v
    in
    let fill =
      { value = (fun ~planned:_ _ -> take ());
        int =
          (fun ~planned:_ _ ->
            match take () with
            | Value.Int n -> n
            | _ -> raise Exit);
        float =
          (fun ~planned:_ _ ->
            match take () with
            | Value.Float f -> f
            | Value.Int n -> float_of_int n
            | _ -> raise Exit)
      }
    in
    match statement fill tpl.parsed with
    | s -> Some s
    | exception Exit -> None
  end

type rebinding =
  | Same
  | Subst of (Value.t -> Value.t)
  | Replan

let rebinding tpl ~made_from literals =
  let differs = ref false and replan = ref false in
  Array.iteri
    (fun i planned ->
      if planned && not (same_literal made_from.(i) literals.(i)) then
        if tpl.pointer.(i) then differs := true else replan := true)
    tpl.planned;
  if !replan then Replan
  else if not !differs then Same
  else
    (* Every planned value site maps, equal ones too, so the rebound
       plan holds exactly [literals]' values at its sites. *)
    Subst
      (fun v ->
        let rec site i =
          if i = Array.length made_from then v
          else if tpl.planned.(i) && tpl.pointer.(i) && made_from.(i) == v then literals.(i)
          else site (i + 1)
        in
        site 0)
