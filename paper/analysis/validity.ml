(* Critical tuples of R -exp S: in both operands with texp_R(t) >
   texp_S(t).  Each contributes the invalid window [texp_S(t), texp_R(t)[
   during which it is missing from the materialisation. *)
let critical_windows l_rel r_rel =
  Relation.fold
    (fun t e_l acc ->
      match Relation.texp_opt r_rel t with
      | Some e_s when Time.(e_l > e_s) -> Interval.make e_s e_l :: acc
      | Some _ | None -> acc)
    l_rel []

let aggregate_windows ~tau f members =
  let segments = Aggregate.timeline ~tau f members in
  let v0 = match segments with
    | (_, v) :: _ -> v
    | [] -> None
  in
  let rec windows = function
    | [] -> []
    | (start, v) :: rest ->
      let stop = match rest with
        | (next, _) :: _ -> next
        | [] -> Time.Inf
      in
      let keep = match v with
        | None -> true (* partition expired: result tuple absent, not wrong *)
        | Some _ -> Option.equal Value.equal v v0
      in
      let tail = windows rest in
      if keep then
        match Interval.make_opt start stop with
        | Some i -> i :: tail
        | None -> tail
      else tail
  in
  Interval_set.of_list (windows segments)

let expression_validity ?(strategy = Aggregate.Exact) ~env ~tau expr =
  let everywhere = Interval_set.of_interval (Interval.from tau) in
  let eval e = Eval.relation_at ~strategy ~env ~tau e in
  let rec go = function
    | Algebra.Base _ -> everywhere
    | Algebra.Select (_, e) | Algebra.Project (_, e) -> go e
    | Algebra.Product (l, r)
    | Algebra.Union (l, r)
    | Algebra.Join (_, l, r)
    | Algebra.Intersect (l, r) ->
      Interval_set.inter (go l) (go r)
    | Algebra.Diff (l, r) ->
      let invalid = Interval_set.of_list (critical_windows (eval l) (eval r)) in
      let own = Interval_set.diff everywhere invalid in
      Interval_set.inter own (Interval_set.inter (go l) (go r))
    | Algebra.Aggregate (group, f, e) ->
      (* Per partition, the materialisation (whose rows expire at the
         strategy's partition time, capped by their members) matches a
         recomputation during [tau, t_s[ and again once the partition has
         expired entirely.  [aggregate_windows] is the paper's
         per-tuple I_R(t), which additionally counts windows where the
         value returns to its materialised value — those cannot be served
         from an eagerly-expired materialisation, so the expression-level
         set excludes them. *)
      let parts = Aggregate.partitions ~group (eval e) in
      let partition_windows (_key, members) =
        let t_s = Aggregate.result_texp strategy ~tau f members in
        let empties = Aggregate.empties_at members in
        if Time.(t_s < empties) then
          Interval_set.of_list
            (Interval.make tau t_s
             :: (match Interval.make_opt empties Time.Inf with
                 | Some i -> [ i ]
                 | None -> []))
        else Interval_set.of_interval (Interval.from tau)
      in
      let own =
        List.fold_left
          (fun acc p -> Interval_set.inter acc (partition_windows p))
          everywhere parts
      in
      Interval_set.inter own (go e)
  in
  go expr

let difference_validity_eq12 ~env ~tau l r =
  let everywhere = Interval_set.of_interval (Interval.from tau) in
  let windows =
    critical_windows (Eval.relation_at ~env ~tau l) (Eval.relation_at ~env ~tau r)
  in
  match windows with
  | [] -> everywhere
  | _ ->
    let lo = Time.min_list (List.map (fun i -> i.Interval.lo) windows) in
    let hi = Time.max_list (List.map (fun i -> i.Interval.hi) windows) in
    Interval_set.diff everywhere (Interval_set.of_interval (Interval.make lo hi))

type observation =
  | Answer_now
  | Move_backward of Time.t
  | Delay_until of Time.t
  | Recompute

type policy =
  | Prefer_backward
  | Prefer_delay
  | Recompute_only

let latest_valid_before tau s =
  let candidate best i =
    if Time.(i.Interval.lo >= tau) then best
    else
      let c =
        if Time.(i.Interval.hi > tau) then Time.pred tau
        else Time.pred i.Interval.hi
      in
      if Time.(c >= i.Interval.lo) then
        Some (match best with
          | None -> c
          | Some b -> Time.max b c)
      else best
  in
  List.fold_left candidate None (Interval_set.to_list s)

let observe ~policy ~validity tau =
  if Interval_set.mem tau validity then Answer_now
  else
    let backward () =
      Option.map (fun t -> Move_backward t) (latest_valid_before tau validity)
    in
    let delay () =
      Option.map (fun t -> Delay_until t) (Interval_set.next_covered_after tau validity)
    in
    let first_of options =
      match List.find_map (fun f -> f ()) options with
      | Some o -> o
      | None -> Recompute
    in
    match policy with
    | Prefer_backward -> first_of [ backward; delay ]
    | Prefer_delay -> first_of [ delay; backward ]
    | Recompute_only -> Recompute
