open Expirel_core
open Expirel_storage

type spec =
  | Min_cardinality of int
  | Max_cardinality of int

type violation = {
  name : string;
  at : Time.t;
  cardinality : int;
  spec : spec;
}

type watch = {
  compiled : Plan.compiled;
  spec : spec;
}

type t = {
  db : Database.t;
  watches : (string, watch) Hashtbl.t;
}

let create db = { db; watches = Hashtbl.create 8 }

let add t ~name compiled spec =
  (match spec with
   | Min_cardinality n | Max_cardinality n ->
     if n < 1 then invalid_arg "Invariant.add: non-positive bound");
  if Hashtbl.mem t.watches name then
    invalid_arg (Printf.sprintf "Invariant.add: %s exists" name)
  else begin
    (* Validate the expression eagerly. *)
    let arity_env n = Option.map Table.arity (Database.table t.db n) in
    let (_ : int) = Algebra.arity ~env:arity_env compiled.Plan.logical in
    Hashtbl.replace t.watches name { compiled; spec }
  end

let remove t name =
  Hashtbl.mem t.watches name && (Hashtbl.remove t.watches name; true)

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.watches []
  |> List.sort String.compare

let violated spec cardinality =
  match spec with
  | Min_cardinality n -> cardinality < n
  | Max_cardinality n -> cardinality > n

(* The constraint's transitions into violation in ]clock, to_], oldest
   first; [first] stops at the first one.  The plan runs once at the
   clock, then the subscriptions' change-time walk goes on from that
   result, counting -1 per expiry and +1 per appearance and checking
   the bound once per instant.  The walk reports every row that leaves
   the result, a refresh's drops included, so the count is exact. *)
let transitions t name ~to_ ~first =
  let w = Hashtbl.find t.watches name in
  let result = Executor.run ~db:t.db w.compiled in
  let cardinality = ref (Relation.cardinal result.Eval.relation) in
  let was_violated = ref (violated w.spec !cardinality) in
  let found = ref [] in
  ignore
    (Subscription.walk ~db:t.db ~name w.compiled result
       ~from:(Database.now t.db) ~to_
       ~emit:(function
         | Subscription.Row_expired _ -> decr cardinality
         | Subscription.Row_appeared _ -> incr cardinality
         | Subscription.Refreshed _ -> ())
       ~settle:(fun at ->
         let bad = violated w.spec !cardinality in
         if bad && not !was_violated then
           found :=
             { name; at; cardinality = !cardinality; spec = w.spec } :: !found;
         was_violated := bad;
         not (first && !found <> []))
      : Eval.result);
  List.rev !found

let check_now t =
  let now = Database.now t.db in
  List.filter_map
    (fun name ->
      let w = Hashtbl.find t.watches name in
      let cardinality =
        Relation.cardinal (Executor.run ~db:t.db w.compiled).Eval.relation
      in
      if violated w.spec cardinality then
        Some { name; at = now; cardinality; spec = w.spec }
      else None)
    (names t)

let next_violation t ~name ~horizon =
  if Time.is_infinite horizon then
    invalid_arg "Invariant.next_violation: infinite horizon";
  match transitions t name ~to_:(Time.pred horizon) ~first:true with
  | v :: _ -> Some v.at
  | [] -> None

let advance t target =
  if Time.is_infinite target then invalid_arg "Invariant.advance: infinite time"
  else if Time.(target < Database.now t.db) then
    invalid_arg "Invariant.advance: moving backwards"
  else begin
    let found =
      List.concat_map
        (fun name -> transitions t name ~to_:target ~first:false)
        (names t)
    in
    Database.advance_to t.db target;
    (* [found] is in name order: ties at one instant keep it. *)
    List.stable_sort (fun a b -> Time.compare a.at b.at) found
  end
