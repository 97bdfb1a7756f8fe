(* Invariant: intervals sorted by lower bound, pairwise disjoint and
   non-adjacent, so the representation of a set of time points is unique. *)
type t = Interval.t list

let empty = []
let full = [ Interval.from Time.zero ]
let of_interval i = [ i ]
let to_list s = s

let rec insert i = function
  | [] -> [ i ]
  | j :: rest ->
    (match Interval.union i j with
     | Some merged -> insert merged rest
     | None ->
       if Time.(i.Interval.hi < j.Interval.lo) then i :: j :: rest
       else j :: insert i rest)

let add i s = insert i s
let of_list is = List.fold_left (fun s i -> add i s) empty is
let mem tau s = List.exists (Interval.mem tau) s
let equal a b = List.length a = List.length b && List.for_all2 Interval.equal a b
let union a b = List.fold_left (fun s i -> add i s) a b

let inter a b =
  let pairwise i = List.filter_map (Interval.inter i) b in
  of_list (List.concat_map pairwise a)

(* [i - j] leaves at most two fragments. *)
let interval_diff i j =
  match Interval.inter i j with
  | None -> [ i ]
  | Some cut ->
    let left = Interval.make_opt i.Interval.lo cut.Interval.lo in
    let right = Interval.make_opt cut.Interval.hi i.Interval.hi in
    List.filter_map Fun.id [ left; right ]

let diff a b =
  let subtract_all i = List.fold_left
      (fun fragments j -> List.concat_map (fun f -> interval_diff f j) fragments)
      [ i ] b
  in
  of_list (List.concat_map subtract_all a)

let complement ~within s = diff [ within ] s
let cardinal = List.length

let total_duration s =
  List.fold_left (fun acc i -> Time.add acc (Interval.duration i)) Time.zero s

let first_gap_after tau s =
  let rec scan tau = function
    | [] -> Some tau
    | i :: rest ->
      if Time.(tau < i.Interval.lo) then Some tau
      else if Interval.mem tau i then
        (match i.Interval.hi with
         | Time.Inf -> None
         | hi -> scan hi rest)
      else scan tau rest
  in
  scan tau s

let next_covered_after tau s =
  let candidate i =
    if Interval.mem tau i then Some tau
    else if Time.(tau < i.Interval.lo) then Some i.Interval.lo
    else None
  in
  List.find_map candidate s

let pp ppf s =
  if s = [] then Format.pp_print_string ppf "{}"
  else
    Format.fprintf ppf "@[<h>%a@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " u ")
         Interval.pp)
      s

let to_string s = Format.asprintf "%a" pp s
