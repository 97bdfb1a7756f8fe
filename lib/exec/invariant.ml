open Expirel_core
open Expirel_storage

type bounds = {
  min_rows : int option;
  max_rows : int option;
}

let check_bounds { min_rows; max_rows } =
  if List.exists (fun n -> n < 1) (List.filter_map Fun.id [ min_rows; max_rows ])
  then invalid_arg "Invariant: non-positive bound"

let violated { min_rows; max_rows } cardinality =
  Option.fold min_rows ~none:false ~some:(fun n -> cardinality < n)
  || Option.fold max_rows ~none:false ~some:(fun n -> cardinality > n)

type forecast = {
  cardinality : int;
  transitions : (Time.t * int) list;
}

(* The walk reports every row that leaves the result, a refresh's drops
   included, so the running count is exact at every instant. *)
let forecast ~db compiled bounds ~to_ ~first =
  let result = Executor.run ~db compiled in
  let cardinality = Relation.cardinal result.Eval.relation in
  let count = ref cardinality in
  let was_violated = ref (violated bounds cardinality) in
  let found = ref [] in
  if not (first && !was_violated) then
    ignore
      (Subscription.walk ~db ~name:"" compiled result ~from:(Database.now db)
         ~to_
         ~emit:(function
           | Subscription.Row_expired _ -> decr count
           | Subscription.Row_appeared _ -> incr count
           | Subscription.Refreshed _ -> ())
         ~settle:(fun at ->
           let bad = violated bounds !count in
           if bad && not !was_violated then found := (at, !count) :: !found;
           was_violated := bad;
           not (first && !found <> []))
        : Eval.result);
  { cardinality; transitions = List.rev !found }
