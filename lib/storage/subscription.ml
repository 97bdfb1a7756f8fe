open Expirel_core

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
  expr : Algebra.t;
  handler : handler;
  mutable result : Eval.result;  (* materialised at [synced] *)
}

type t = {
  db : Database.t;
  watches : (string, watch) Hashtbl.t;
}

let create db = { db; watches = Hashtbl.create 8 }

(* Evaluate against the stored tables as they will stand at [tau] —
   valid for tau at or beyond the database clock. *)
let env_at t tau name =
  Option.map (fun tbl -> Table.snapshot tbl ~tau) (Database.table t.db name)

let subscribe t ~name expr handler =
  if Hashtbl.mem t.watches name then
    invalid_arg (Printf.sprintf "Subscription.subscribe: %s exists" name)
  else
    let result = Eval.run ~env:(env_at t (Database.now t.db)) ~tau:(Database.now t.db) expr in
    Hashtbl.replace t.watches name { expr; handler; result }

let unsubscribe t name =
  if Hashtbl.mem t.watches name then begin
    Hashtbl.remove t.watches name;
    true
  end
  else false

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.watches []
  |> List.sort String.compare

let current t name =
  match Hashtbl.find_opt t.watches name with
  | Some w -> Relation.exp (Database.now t.db) w.result.Eval.relation
  | None -> raise Not_found

(* The change-time walk, parameterised over the event sink: [drive]
   commits the walk to the watch, [forecast_events] replays the
   identical walk without committing — the forecast is exact because
   the future is.  The walk holds the rows of the current result that
   expire before its next refresh or the target, in [(texp, tuple)]
   order, sorted once per walk and again after each refresh, so a step
   touches only the rows it fires.  Returns the result as it stands at
   [to_]. *)
let simulate t name w ~from ~to_ ~emit =
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
    let next = Time.min next_expiry result.Eval.texp in
    if Time.(next > to_) || Time.is_infinite next then result
    else begin
      let at = next in
      (* Expirations at this instant fire first, in tuple order. *)
      let rec fire = function
        | (texp, tuple) :: rest when Time.equal texp at ->
          emit (Row_expired { subscription = name; tuple; at });
          fire rest
        | rest -> rest
      in
      let due_rows = fire due_rows in
      if Time.(result.Eval.texp <= at) then begin
        (* The materialisation is invalid from here: refresh locally and
           report what (re)appeared — every row but the survivors of
           the old result. *)
        let refreshed = Eval.run ~env:(env_at t at) ~tau:at w.expr in
        emit (Refreshed { subscription = name; at });
        Relation.iter
          (fun tuple texp ->
            match Relation.texp_opt result.Eval.relation tuple with
            | Some old when Time.(old > at) -> ()
            | Some _ | None ->
              emit (Row_appeared { subscription = name; tuple; texp; at }))
          refreshed.Eval.relation;
        go refreshed (due refreshed ~after:at)
      end
      else go result due_rows
    end
  in
  go w.result (due w.result ~after:from)

(* The watch keeps only the rows live at [to_]: the walk fired every
   other one, and a monotone watch, never refreshed, would otherwise
   hold every row it ever had. *)
let drive t name w ~from ~to_ =
  let result = simulate t name w ~from ~to_ ~emit:w.handler in
  w.result <-
    { result with Eval.relation = Relation.exp to_ result.Eval.relation }

let forecast_events t ~until =
  let from = Database.now t.db in
  if Time.is_infinite until || Time.(until <= from) then 0
  else begin
    let count = ref 0 in
    List.iter
      (fun name ->
        let w = Hashtbl.find t.watches name in
        ignore
          (simulate t name w ~from ~to_:until ~emit:(fun _ -> incr count)
            : Eval.result))
      (names t);
    !count
  end

let deliver_until t target =
  if Time.is_infinite target then
    invalid_arg "Subscription.deliver_until: infinite time"
  else if Time.(target < Database.now t.db) then
    invalid_arg "Subscription.deliver_until: moving backwards"
  else begin
    let from = Database.now t.db in
    (* Replay the continuous queries' change times before the storage
       physically removes rows (eager policy): refreshes at intermediate
       instants must see everything that was live then. *)
    List.iter
      (fun name -> drive t name (Hashtbl.find t.watches name) ~from ~to_:target)
      (names t)
  end

let advance t target =
  deliver_until t target;
  Database.advance_to t.db target
