type bounds = {
  min_rows : int option;
  max_rows : int option;
}

let check_bounds { min_rows; max_rows } =
  if List.exists (fun n -> n < 1) (List.filter_map Fun.id [ min_rows; max_rows ])
  then invalid_arg "Invariant: non-positive bound";
  match min_rows, max_rows with
  | Some lo, Some hi when lo > hi ->
    invalid_arg (Printf.sprintf "Invariant: MIN %d exceeds MAX %d" lo hi)
  | _ -> ()

let violated { min_rows; max_rows } cardinality =
  Option.fold min_rows ~none:false ~some:(fun n -> cardinality < n)
  || Option.fold max_rows ~none:false ~some:(fun n -> cardinality > n)
