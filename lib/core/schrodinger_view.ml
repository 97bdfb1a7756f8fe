type entry = {
  tuple : Tuple.t;
  interval : Interval.t;
}

type t = {
  computed_at : Time.t;
  arity : int;
  rows : entry list;
}

let computed_at v = v.computed_at
let entries v = List.length v.rows

let entry_opt tuple lo hi =
  Option.map (fun interval -> { tuple; interval }) (Interval.make_opt lo hi)

(* Every tuple of a materialised relation is present from now until its
   expiration time — the single-interval case of monotonic results. *)
let rows_of_relation ~tau relation =
  Relation.fold
    (fun tuple texp acc ->
      match entry_opt tuple tau texp with
      | Some e -> e :: acc
      | None -> acc)
    relation []

(* Difference: Section 3.4.2's per-tuple intervals.  A tuple of R is in
   the result while it is live in R and not live in S. *)
let rows_of_difference ~tau l_rel r_rel =
  Relation.fold
    (fun tuple texp_r acc ->
      let visible_from =
        match Relation.texp_opt r_rel tuple with
        | None -> tau
        | Some texp_s -> texp_s
      in
      match entry_opt tuple visible_from texp_r with
      | Some e -> e :: acc
      | None -> acc)
    l_rel []

(* Aggregation: Section 3.4.1's per-tuple intervals.  Within each value
   segment of the partition's timeline, every live member contributes a
   row carrying that segment's value. *)
let rows_of_aggregation ~tau ~group f child =
  let parts = Aggregate.partitions ~group child in
  let rows_of_partition (_key, members) =
    let segments = Aggregate.timeline ~tau f members in
    let rec emit acc = function
      | [] -> acc
      | (start, value) :: rest ->
        let stop =
          match rest with
          | (next, _) :: _ -> next
          | [] -> Time.Inf
        in
        let acc =
          match value with
          | None -> acc
          | Some v ->
            List.fold_left
              (fun acc (member, texp_member) ->
                let tuple = Tuple.concat member (Tuple.of_list [ v ]) in
                match entry_opt tuple start (Time.min stop texp_member) with
                | Some e -> e :: acc
                | None -> acc)
              acc members
        in
        emit acc rest
    in
    emit [] segments
  in
  List.concat_map rows_of_partition parts

let materialise ~env ~tau expr =
  let arity_env name = Option.map Relation.arity (env name) in
  let arity = Algebra.arity ~env:arity_env expr in
  let rows =
    match expr with
    | Algebra.Diff (left, right) ->
      rows_of_difference ~tau
        (Eval.relation_at ~env ~tau left)
        (Eval.relation_at ~env ~tau right)
    | Algebra.Aggregate (group, f, child) ->
      rows_of_aggregation ~tau ~group f (Eval.relation_at ~env ~tau child)
    | Algebra.Base _ | Algebra.Select _ | Algebra.Project _ | Algebra.Product _
    | Algebra.Union _ | Algebra.Join _ | Algebra.Intersect _ ->
      rows_of_relation ~tau (Eval.relation_at ~env ~tau expr)
  in
  { computed_at = tau; arity; rows }

let read v ~tau =
  if Time.(tau < v.computed_at) then
    invalid_arg "Schrodinger_view.read: before materialisation time"
  else
    List.fold_left
      (fun acc { tuple; interval } ->
        if Interval.mem tau interval then
          Relation.add tuple ~texp:interval.Interval.hi acc
        else acc)
      (Relation.empty ~arity:v.arity)
      v.rows
