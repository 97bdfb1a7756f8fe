open Expirel_core

type t = {
  name : string;
  columns : string list;
  rows : Row_map.t;  (* tuple -> texp: set semantics *)
  run : Texp_run.t;  (* the same rows, in (texp, tuple) order *)
  mutable secondary : (int * Texp_run.t) list;
      (* column -> the same rows keyed on it, in (key, texp, tuple)
         order; ascending by column *)
  mutable generation : int;  (* bumped on every physical row change *)
  mutable cached_snapshot : (int * Time.t option * Relation.t) option;
      (* A full-table snapshot and the table's least texp: while the
         table is unchanged and that texp is after [tau], every physical
         row is live at [tau], so the snapshot is reused. *)
}

let create ~name ~columns () =
  if columns = [] then invalid_arg "Table.create: no columns"
  else
    { name;
      columns;
      rows = Row_map.create 64;
      run = Texp_run.create ~arity:(List.length columns) [];
      secondary = [];
      generation = 0;
      cached_snapshot = None
    }

let generation t = t.generation
let touch t = t.generation <- t.generation + 1

let name t = t.name
let columns t = t.columns
let arity t = List.length t.columns
let run t = t.run

let column_position t column =
  let rec find i = function
    | [] -> None
    | c :: rest -> if String.equal c column then Some i else find (i + 1) rest
  in
  find 1 t.columns

let check_arity t tuple =
  if Tuple.arity tuple <> arity t then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): tuple arity %d, table arity %d" t.name
         (Tuple.arity tuple) (arity t))

(* A row change on every index, by direct calls. *)
let rec add_each tuple texp = function
  | [] -> ()
  | (_, idx) :: rest -> Texp_run.add idx tuple texp; add_each tuple texp rest

let rec remove_each tuple texp = function
  | [] -> ()
  | (_, idx) :: rest -> Texp_run.remove idx tuple texp; remove_each tuple texp rest

(* One probe finds the tuple's slot, held or vacant, and the write goes
   there. *)
let insert t tuple ~texp =
  check_arity t tuple;
  let m = t.rows and hash = Row_map.hash tuple in
  let i = Row_map.slot m tuple ~hash in
  if not (Row_map.held m i) then begin
    touch t;
    Texp_run.add t.run tuple texp;
    add_each tuple texp t.secondary;
    Row_map.fill m i tuple ~hash texp
  end
  else
    let old = Row_map.texp m i in
    if not (Time.equal old texp) then begin
      touch t;
      Texp_run.remove t.run tuple old;
      Texp_run.add t.run tuple texp;
      remove_each tuple old t.secondary;
      add_each tuple texp t.secondary;
      Row_map.set_texp m i texp
    end

let delete t tuple =
  let m = t.rows in
  let i = Row_map.slot m tuple ~hash:(Row_map.hash tuple) in
  Row_map.held m i
  && begin
    let texp = Row_map.texp m i in
    touch t;
    Texp_run.remove t.run tuple texp;
    remove_each tuple texp t.secondary;
    Row_map.clear m i;
    true
  end

let texp_of t tuple = Row_map.find t.rows tuple ~hash:(Row_map.hash tuple)
let physical_count t = Row_map.length t.rows

(* Live cardinality: one cut of the run, O(log n). *)
let live_estimate t ~tau = physical_count t - Texp_run.count_upto t.run tau

let next_expiry t =
  match Texp_run.min_texp t.run with
  | Some (Time.Fin _ as e) -> Some e
  | Some Time.Inf | None -> None

let live_texp_range t ~tau =
  match Texp_run.min_live_texp t.run ~tau, Texp_run.max_texp t.run with
  | Some lo, Some hi -> Some (lo, hi)
  | Some _, None | None, _ -> None

(* The forward expiration profile: per-bucket counts of live rows by
   ticks-to-expiry.  Each bucket boundary is one [count_upto], O(log n),
   so the histogram costs O(buckets · log n) and never touches a row.
   [bounds] must be ascending; [max_int] means +Inf and its bucket also
   holds never-expiring rows. *)
let expiring_within t ~now ~bounds =
  let n = Array.length bounds in
  let cum = Array.make n 0 in
  (match now with
   | Time.Inf -> ()  (* nothing is live at infinity *)
   | Time.Fin v ->
     let total = physical_count t in
     let c0 = Texp_run.count_upto t.run now in
     Array.iteri
       (fun i bound ->
         let upto =
           (* [bound > max_int - v] saturates: the window reaches past
              every finite time, so every row beyond the [now] cut
              belongs to it. *)
           if bound = max_int || bound > max_int - v then total
           else Texp_run.count_upto t.run (Time.of_int (v + bound))
         in
         cum.(i) <- upto - c0)
       bounds);
  (* cumulative cuts -> per-bucket counts *)
  Array.mapi (fun i c -> if i = 0 then c else c - cum.(i - 1)) cum

(* The run's full scan, row by row. *)
let fold_live t ~tau f acc =
  let acc = ref acc and all = Texp_run.Unbounded in
  Texp_run.scan_range t.run ~tau ~lo:all ~hi:all ~visited:(ref 0) ~dropped:(ref 0) (fun c sel ->
      let tuple r = Tuple.init ~arity:(arity t) (fun j -> (Texp_run.chunk_col c j).(r)) in
      let row r = acc := f (tuple r) (Texp_run.chunk_texps c).(r) !acc in
      match sel with
      | None -> for r = 0 to Texp_run.chunk_len c - 1 do row r done
      | Some s -> Array.iter row s);
  !acc

let snapshot t ~tau =
  let live = function None -> true | Some e -> Time.(e > tau) in
  match t.cached_snapshot with
  | Some (g, least, r) when g = t.generation && live least -> r
  | Some _ | None ->
    let least = Texp_run.min_texp t.run in
    let add tuple texp acc = Relation.add tuple ~texp acc in
    let r = fold_live t ~tau add (Relation.empty ~arity:(arity t)) in
    if live least then t.cached_snapshot <- Some (t.generation, least, r);
    r

let expire_upto t tau =
  let due = Texp_run.expire_upto t.run tau in
  List.iter (fun (_, idx) -> Texp_run.forget_upto idx tau) t.secondary;
  if due <> [] then begin
    touch t;
    List.iter (fun (tuple, _) -> Row_map.remove t.rows tuple ~hash:(Row_map.hash tuple)) due
  end;
  due

let vacuum t ~tau = List.length (expire_upto t tau)

(* --- secondary indexes --- *)

let create_index t ~column =
  if column < 1 || column > arity t then
    invalid_arg
      (Printf.sprintf "Table.create_index(%s): column %d outside 1..%d" t.name
         column (arity t));
  let idx =
    Texp_run.create ~key:column ~arity:(arity t)
      (Row_map.fold (fun tuple texp acc -> (tuple, texp) :: acc) t.rows [])
  in
  t.secondary <-
    List.merge
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.remove_assoc column t.secondary)
      [ (column, idx) ]

let drop_index t ~column = t.secondary <- List.remove_assoc column t.secondary
let has_index t ~column = List.mem_assoc column t.secondary
let indexed_columns t = List.map fst t.secondary
let index t ~column = List.assoc column t.secondary
