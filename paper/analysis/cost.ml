type estimate = {
  eval_cost : float;
  recomputations : int;
  total : float;
}

(* One instrumented evaluation: every operator is charged the
   cardinality it processes.  Rather than shadowing the evaluator, ride
   {!Eval.run}'s [?probe] hook — the probe keeps a stack of frames, one
   per operator node being evaluated, each collecting the cardinalities
   of that node's children as they complete.  Charging then only needs
   the operator name and its children's sizes, and the accounting cannot
   drift from the evaluation semantics. *)
let eval_cost ~env ~tau expr =
  let cost = ref 0. in
  let charge n = cost := !cost +. float_of_int n in
  (* Innermost frame first; the bottom frame collects the root's size. *)
  let stack = ref [ [] ] in
  let probe name k =
    stack := [] :: !stack;
    let result = k () in
    let children, outer =
      match !stack with
      | children :: outer -> children, outer
      | [] -> assert false
    in
    stack := outer;
    let self = Relation.cardinal result.Eval.relation in
    (match name, children with
     | "base", [] -> charge self
     | ("select" | "project" | "aggregate"), [ c ] -> charge c
     | ("product" | "join"), [ a; b ] -> charge (a * b)
     | ("union" | "intersect" | "difference"), [ a; b ] -> charge (a + b)
     | _ ->
       invalid_arg
         (Printf.sprintf "Cost.eval_cost: operator %s with %d children" name
            (List.length children)));
    (match !stack with
     | parent :: rest -> stack := (self :: parent) :: rest
     | [] -> ());
    result
  in
  let (_ : Eval.result) = Eval.run ~probe ~env ~tau expr in
  !cost

let estimate ~env ~tau ~horizon expr =
  let eval_cost = eval_cost ~env ~tau expr in
  let recomputations =
    List.length (View.maintenance_times ~env ~from:tau ~horizon expr)
  in
  { eval_cost;
    recomputations;
    total = eval_cost *. float_of_int (recomputations + 1)
  }

let choose ~env ~tau ~horizon candidates =
  match candidates with
  | [] -> invalid_arg "Cost.choose: no candidates"
  | first :: rest ->
    List.fold_left
      (fun (best, best_est) candidate ->
        let est = estimate ~env ~tau ~horizon candidate in
        if est.total < best_est.total then candidate, est else best, best_est)
      (first, estimate ~env ~tau ~horizon first)
      rest
