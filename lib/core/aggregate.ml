type func =
  | Count
  | Sum of int
  | Min of int
  | Max of int
  | Avg of int

type strategy =
  | Conservative
  | Neutral
  | Exact
  | Within of float

let func_attr = function
  | Count -> None
  | Sum i | Min i | Max i | Avg i -> Some i

let func_arity_ok ~arity f =
  match func_attr f with
  | None -> true
  | Some i -> 1 <= i && i <= arity

type partition = (Tuple.t * Time.t) list

let attr_values i members =
  List.filter_map
    (fun (t, _) ->
      let v = Tuple.attr t i in
      if Value.is_null v then None else Some v)
    members

let sum_values vs =
  match vs with
  | [] -> Value.Null
  | v :: rest -> List.fold_left Value.add v rest

let extremum keep vs =
  match vs with
  | [] -> Value.Null
  | v :: rest ->
    List.fold_left (fun acc w -> if keep (Value.compare w acc) then w else acc) v rest

let apply f members =
  if members = [] then invalid_arg "Aggregate.apply: empty partition"
  else
    match f with
    | Count -> Value.Int (List.length members)
    | Sum i -> sum_values (attr_values i members)
    | Min i -> extremum (fun c -> c < 0) (attr_values i members)
    | Max i -> extremum (fun c -> c > 0) (attr_values i members)
    | Avg i ->
      let vs = attr_values i members in
      (match vs with
       | [] -> Value.Null
       | _ ->
         let total =
           List.fold_left
             (fun acc v ->
               match Value.to_float v with
               | Some x -> acc +. x
               | None -> acc)
             0. vs
         in
         Value.Float (total /. float_of_int (List.length vs)))

module Tuple_map = Map.Make (Tuple)

let partitions ~group r =
  let grouped =
    Relation.fold
      (fun t texp acc ->
        let key = Tuple.project group t in
        let members = Option.value ~default:[] (Tuple_map.find_opt key acc) in
        Tuple_map.add key ((t, texp) :: members) acc)
      r Tuple_map.empty
  in
  Tuple_map.bindings grouped
  |> List.map (fun (key, members) -> key, List.rev members)

let partition_of ~group r t =
  let key = Tuple.project group t in
  Relation.fold
    (fun r_t texp acc ->
      if Tuple.equal (Tuple.project group r_t) key then (r_t, texp) :: acc
      else acc)
    r []
  |> List.rev

let live_at tau members = List.filter (fun (_, e) -> Time.(e > tau)) members

let value_at tau f members =
  match live_at tau members with
  | [] -> None
  | live -> Some (apply f live)

let value_opt_equal a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Value.equal x y
  | None, Some _ | Some _, None -> false

let chi tau f members =
  not (value_opt_equal (value_at tau f members) (value_at (Time.succ tau) f members))

(* Distinct finite expiration times among [members], ascending.  These are
   the only instants at which the aggregate value can change. *)
let finite_expiries members =
  let module Time_set = Set.Make (Time) in
  List.fold_left
    (fun acc (_, e) -> if Time.is_finite e then Time_set.add e acc else acc)
    Time_set.empty members
  |> Time_set.elements

(* Generic change-point scan: the first expiry instant at which
   [differs v0 current] holds (an empty partition always counts). *)
let first_change ~tau ~differs f members =
  match live_at tau members with
  | [] -> Time.Inf
  | live ->
    let v0 = apply f live in
    let changed e =
      match live_at e live with
      | [] -> true
      | remaining -> differs v0 (apply f remaining)
    in
    (match List.find_opt changed (finite_expiries live) with
     | Some e -> e
     | None -> Time.Inf)

let nu ~tau f members =
  first_change ~tau ~differs:(fun a b -> not (Value.equal a b)) f members

let nu_within ~tolerance ~tau f members =
  if tolerance < 0. then invalid_arg "Aggregate.nu_within: negative tolerance"
  else
    let differs v0 v =
      match Value.to_float v0, Value.to_float v with
      | Some x, Some y -> Float.abs (y -. x) > tolerance
      | None, None | Some _, None | None, Some _ -> not (Value.equal v0 v)
    in
    first_change ~tau ~differs f members

let empties_at members =
  match members with
  | [] -> Time.Inf
  | _ -> Time.max_list (List.map snd members)

(* --- Neutral sets, Table 1 --- *)

let float_of v = Option.value ~default:0. (Value.to_float v)

let slice_sum i slice =
  List.fold_left (fun acc (t, _) -> acc +. float_of (Tuple.attr t i)) 0. slice

let non_null_count i members =
  List.length (attr_values i members)

(* Neutral condition for min_i (Table 1): every slice member either has a
   value strictly above the partition minimum, or is a minimal tuple that
   is outlived by another minimal tuple.  [dual] flips it for max_i. *)
let extremum_slice_neutral ~dual i slice whole =
  let vs = attr_values i whole in
  match vs with
  | [] -> true (* nothing contributes; removing nulls changes nothing *)
  | _ ->
    let best = extremum (fun c -> if dual then c > 0 else c < 0) vs in
    let best_texp =
      Time.max_list
        (List.filter_map
           (fun (t, e) ->
             if Value.equal (Tuple.attr t i) best then Some e else None)
           whole)
    in
    let tuple_neutral (t, e) =
      let v = Tuple.attr t i in
      if Value.is_null v then true
      else
        let c = Value.compare v best in
        let non_extremal = if dual then c < 0 else c > 0 in
        non_extremal || Time.(e < best_texp)
    in
    List.for_all tuple_neutral slice

let slice_neutral f slice whole =
  match f with
  | Count -> false
  | Sum i ->
    let n_slice = non_null_count i slice and n_whole = non_null_count i whole in
    (* A slice holding every non-null value is not neutral (beyond the
       paper's null-free model): its removal collapses the sum to null. *)
    n_slice = 0
    || (n_whole > n_slice && Float.equal (slice_sum i slice) 0.)
  | Avg i ->
    let n_slice = non_null_count i slice and n_whole = non_null_count i whole in
    n_slice = 0
    || (n_whole > n_slice
        (* sum(N) = (|N| / |P|) * sum(P), compared cross-multiplied *)
        && Float.equal
             (slice_sum i slice *. float_of_int n_whole)
             (slice_sum i whole *. float_of_int n_slice))
  | Min i -> extremum_slice_neutral ~dual:false i slice whole
  | Max i -> extremum_slice_neutral ~dual:true i slice whole

let time_slices members =
  let expiries = finite_expiries members in
  let finite =
    List.map
      (fun e -> e, List.filter (fun (_, e') -> Time.equal e' e) members)
      expiries
  in
  let immortal = List.filter (fun (_, e) -> Time.is_infinite e) members in
  finite, immortal

let neutral_slices ~tau f members =
  match live_at tau members with
  | [] -> invalid_arg "Aggregate.neutral_slices: no live member"
  | live ->
    let finite, immortal = time_slices live in
    let rec go removed remaining = function
      | [] -> List.rev removed, remaining
      | (e, slice) :: rest ->
        if slice_neutral f slice remaining then
          let remaining' =
            List.filter (fun (_, e') -> not (Time.equal e' e)) remaining
          in
          go ((e, slice) :: removed) remaining' rest
        else List.rev removed, remaining
    in
    (* An immortal slice never expires, so it can never be "expired so
       far"; processing stops at it regardless of neutrality. *)
    let removed, remaining = go [] live finite in
    if remaining = [] && immortal = [] then removed, []
    else removed, remaining

let result_texp strategy ~tau f members =
  match live_at tau members with
  | [] -> invalid_arg "Aggregate.result_texp: no live member"
  | live ->
    (match strategy with
     | Conservative -> Time.min_list (List.map snd live)
     | Exact -> nu ~tau f live
     | Within tolerance -> nu_within ~tolerance ~tau f live
     | Neutral ->
       let _, contributing = neutral_slices ~tau f live in
       (match contributing with
        | [] -> empties_at live
        | _ -> Time.min_list (List.map snd contributing)))

let timeline ~tau f members =
  match live_at tau members with
  | [] -> [ tau, None ]
  | live ->
    let v0 = Some (apply f live) in
    let step (segments, prev) e =
      let v = value_at e f live in
      if value_opt_equal v prev then segments, prev
      else (e, v) :: segments, v
    in
    let segments, _ =
      List.fold_left step ([ tau, v0 ], v0) (finite_expiries live)
    in
    List.rev segments

let pp_func ppf = function
  | Count -> Format.pp_print_string ppf "count"
  | Sum i -> Format.fprintf ppf "sum_%d" i
  | Min i -> Format.fprintf ppf "min_%d" i
  | Max i -> Format.fprintf ppf "max_%d" i
  | Avg i -> Format.fprintf ppf "avg_%d" i

let func_to_string f = Format.asprintf "%a" pp_func f
