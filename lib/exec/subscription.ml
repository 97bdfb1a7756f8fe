open Expirel_core
open Expirel_storage

type event =
  | Row_expired of {
      subscription : string;
      tuple : Tuple.t;
      at : Time.t;
    }
  | Row_appeared of {
      subscription : string;
      tuple : Tuple.t;
      texp : Time.t;
      at : Time.t;
    }
  | Refreshed of {
      subscription : string;
      at : Time.t;
    }

type handler = event -> unit

type watch = {
  compiled : Plan.compiled;
  handler : handler;
  mutable result : Eval.result;  (* as of the last delivery or write *)
  delta : (Tuple.t -> Tuple.t option) option;  (* see [delta_of] *)
}

type t = {
  db : Database.t;
  watches : (string, watch) Hashtbl.t;
}

let create db = { db; watches = Hashtbl.create 8 }

(* [Base r] or [Select (p, Base r)], either under a [Project] permuting
   r's columns: [row] maps a written row of r to its result row, if any. *)
let delta_of db logical =
  let delta cols r keep =
    let all = List.init (Table.arity (Database.table_exn db r)) succ in
    let cols = Option.value cols ~default:all in
    if List.sort compare cols <> all then None
    else Some (fun row -> if keep row then Some (Tuple.project cols row) else None)
  in
  let rec go cols = function
    | Algebra.Project (c, e) when cols = None -> go (Some c) e
    | Algebra.Base r -> delta cols r (fun _ -> true)
    | Algebra.Select (p, Algebra.Base r) -> delta cols r (Predicate.eval p)
    | _ -> None
  in
  go None logical

let subscribe t ~name compiled handler =
  if Hashtbl.mem t.watches name then
    invalid_arg (Printf.sprintf "Subscription.subscribe: %s exists" name)
  else
    let result = Executor.run ~db:t.db compiled in
    let delta = delta_of t.db compiled.Plan.logical in
    Hashtbl.replace t.watches name { compiled; handler; result; delta }

let unsubscribe t name =
  Hashtbl.mem t.watches name && (Hashtbl.remove t.watches name; true)

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.watches []
  |> List.sort String.compare

let result t name = Option.map (fun w -> w.result) (Hashtbl.find_opt t.watches name)

let readers t table =
  List.filter
    (fun name ->
      let w = Hashtbl.find t.watches name in
      List.mem table (Algebra.base_names w.compiled.Plan.logical))
    (names t)

(* [fresh] replacing [old] at [at]: each live old row that [fresh] drops
   or re-dates expires, then [between] runs, then every fresh row but
   the unchanged survivors (fresh rows are live at [at]) appears. *)
let diff ~name ~at ~emit ~between old fresh =
  let same relation tuple texp =
    Option.equal Time.equal (Relation.texp_opt relation tuple) (Some texp)
  in
  Relation.iter
    (fun tuple texp ->
      if Time.(texp > at) && not (same fresh tuple texp) then
        emit (Row_expired { subscription = name; tuple; at }))
    old;
  between ();
  Relation.iter
    (fun tuple texp ->
      if not (same old tuple texp) then
        emit (Row_appeared { subscription = name; tuple; texp; at }))
    fresh

(* The one change-time walk.  It holds the rows of the current result
   that expire before its next refresh or the target, in [(texp, tuple)]
   order, sorted once per walk and again after each refresh, so a step
   touches only the rows it fires.  A refresh at [texp(e)] runs the plan
   at that instant. *)
let walk ~db ~name compiled result ~from ~to_ ~emit ~settle =
  (* The rows expiring in [(after, min to_ texp(e)]]: one fold in tuple
     order, one stable sort by texp. *)
  let due result ~after =
    let upto = Time.min to_ result.Eval.texp in
    Relation.fold
      (fun tuple texp acc ->
        if Time.(texp > after && texp <= upto) then (texp, tuple) :: acc
        else acc)
      result.Eval.relation []
    |> List.rev
    |> List.stable_sort (fun (a, _) (b, _) -> Time.compare a b)
  in
  let rec go result due_rows =
    let next_expiry =
      match due_rows with
      | (texp, _) :: _ -> texp
      | [] -> Time.Inf
    in
    let at = Time.min next_expiry result.Eval.texp in
    if Time.(at > to_) || Time.is_infinite at then result
    else begin
      (* Expirations at this instant fire first, in tuple order. *)
      let rec fire = function
        | (texp, tuple) :: rest when Time.equal texp at ->
          emit (Row_expired { subscription = name; tuple; at });
          fire rest
        | rest -> rest
      in
      let due_rows = fire due_rows in
      let result, due_rows =
        if Time.(result.Eval.texp <= at) then begin
          (* The materialisation is invalid from here: refresh. *)
          let refreshed = Executor.run ~tau:at ~db compiled in
          diff ~name ~at ~emit
            ~between:(fun () -> emit (Refreshed { subscription = name; at }))
            result.Eval.relation refreshed.Eval.relation;
          (refreshed, due refreshed ~after:at)
        end
        else (result, due_rows)
      in
      if settle at then go result due_rows else result
    end
  in
  go result (due result ~after:from)

(* Every watch's walk from the clock to [to_], in name order, each
   handed to [finish] with the result where it stopped. *)
let walk_watches t ~to_ ~emit ~finish =
  let from = Database.now t.db in
  List.iter
    (fun name ->
      let w = Hashtbl.find t.watches name in
      finish w
        (walk ~db:t.db ~name w.compiled w.result ~from ~to_ ~emit:(emit w)
           ~settle:(fun _ -> true)))
    (names t)

let forecast_events t ~until =
  if Time.is_infinite until || Time.(until <= Database.now t.db) then 0
  else begin
    let count = ref 0 in
    walk_watches t ~to_:until
      ~emit:(fun _ _ -> incr count)
      ~finish:(fun _ _ -> ());
    !count
  end

let deliver_until t target =
  if Time.is_infinite target then
    invalid_arg "Subscription.deliver_until: infinite time"
  else if Time.(target < Database.now t.db) then
    invalid_arg "Subscription.deliver_until: moving backwards"
  else
    (* Replay the continuous queries' change times before the storage
       physically removes rows (eager policy): refreshes at intermediate
       instants must see everything that was live then.  A watch keeps
       only the rows live at the target: the walk fired every other one,
       and a monotone watch, never refreshed, would otherwise hold every
       row it ever had. *)
    walk_watches t ~to_:target
      ~emit:(fun w -> w.handler)
      ~finish:(fun w r ->
        w.result <-
          { r with Eval.relation = Relation.exp target r.Eval.relation })

(* A delta watch diffs the written row's result row before and after;
   any other watch reruns at the clock and diffs the whole result. *)
let write ?trace t record =
  let at = Database.now t.db in
  let written table tuple texp =
    let names = readers t table in
    if names <> [] then
      Expirel_obs.Trace.span trace "deliver" @@ fun () ->
      List.iter
        (fun name ->
          let w = Hashtbl.find t.watches name in
          let old = w.result.Eval.relation in
          let diff = diff ~name ~at ~emit:w.handler ~between:ignore in
          match w.delta with
          | None ->
            let fresh = Executor.run ~db:t.db w.compiled in
            diff old fresh.Eval.relation;
            w.result <- fresh
          | Some row ->
            Option.iter
              (fun tuple ->
                let put r =
                  Option.fold ~none:r ~some:(fun e -> Relation.add tuple ~texp:e r)
                in
                let none = Relation.empty ~arity:(Relation.arity old) in
                diff (put none (Relation.texp_opt old tuple)) (put none texp);
                let relation = put (Relation.remove tuple old) texp in
                w.result <- { w.result with Eval.relation })
              (row tuple))
        names
  in
  match record with
  | Wal.Insert { table; tuple; texp } -> written table tuple (Some texp)
  | Wal.Delete { table; tuple } -> written table tuple None
  | Wal.Create_table _ | Wal.Drop_table _ | Wal.Advance _ -> ()
