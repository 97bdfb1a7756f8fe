type source =
  | Metric of string
  | Ratio of { num : string; den : string; min_den : float }
  | Hist_frac_above of { metric : string; bound : float }

type op = Above | Below

type rule = {
  name : string;
  source : source;
  op : op;
  degraded : float;
  critical : float;
  help : string;
}

type level = Ok | Degraded | Critical

type firing = { rule_name : string; value : float; level : level; help : string }

type report = { level : level; firing : firing list }

let level_to_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Critical -> "critical"

let level_of_string = function
  | "ok" -> Some Ok
  | "degraded" -> Some Degraded
  | "critical" -> Some Critical
  | _ -> None

let level_rank = function Ok -> 0 | Degraded -> 1 | Critical -> 2

let worst a b = if level_rank a >= level_rank b then a else b

(* A metric's scalar reading, aggregated over its label combinations:
   the worst case (maximum) for point sources — a lag gauge per replica
   should alarm on the laggiest — and for histograms the total
   observation count.  [None] when the metric is absent or has no
   samples (e.g. a polled provider raised this scrape). *)
let metric_value metrics name =
  match Registry.values metrics name with
  | [] -> None
  | v :: rest -> Some (List.fold_left Float.max v rest)

(* Fraction of observations strictly above [bound] (in the instrument's
   raw integer unit), pooled over every label combination. *)
let hist_frac_above metrics name bound =
  match Registry.find metrics name with
  | None -> None
  | Some m ->
      let total = ref 0 and above = ref 0 in
      List.iter
        (fun (_, s) ->
          match s with
          | Registry.Histogram_sample snap ->
              let open Instrument.Histogram in
              total := !total + snap.count;
              Array.iteri
                (fun i n ->
                  (* Every observation in bucket i is <= bounds.(i); it
                     is surely above [bound] when the previous bucket's
                     bound already exceeds it. *)
                  let lo =
                    if i = 0 then 0. else float_of_int snap.bounds.(i - 1)
                  in
                  if lo >= bound then above := !above + n)
                snap.counts
          | _ -> ())
        m.Registry.samples;
      if !total = 0 then None
      else Some (float_of_int !above /. float_of_int !total)

let source_value metrics = function
  | Metric name -> metric_value metrics name
  | Ratio { num; den; min_den } -> (
      match (metric_value metrics num, metric_value metrics den) with
      | Some n, Some d when d > 0. && d >= min_den -> Some (n /. d)
      | _ -> None)
  | Hist_frac_above { metric; bound } ->
      hist_frac_above metrics metric bound

let rule_level rule value =
  let breaches threshold =
    match rule.op with
    | Above -> value >= threshold
    | Below -> value <= threshold
  in
  if breaches rule.critical then Critical
  else if breaches rule.degraded then Degraded
  else Ok

let evaluate rules metrics =
  let firing =
    List.filter_map
      (fun rule ->
        match source_value metrics rule.source with
        | None -> None  (* unevaluable: absent metric or empty ratio *)
        | Some value -> (
            match rule_level rule value with
            | Ok -> None
            | level ->
                Some
                  { rule_name = rule.name; value; level;
                    help = rule.help }))
      rules
  in
  let level =
    List.fold_left (fun acc (f : firing) -> worst acc f.level) Ok firing
  in
  { level; firing }
