type t = {
  expr : Algebra.t;
  strategy : Aggregate.strategy;
  computed_at : Time.t;
  contents : Relation.t;
  texp : Time.t;
  validity : Interval_set.t;
}

let materialise ?(strategy = Aggregate.Exact) ~env ~tau expr =
  let { Eval.relation; texp } = Eval.run ~strategy ~env ~tau expr in
  let validity = Validity.expression_validity ~strategy ~env ~tau expr in
  { expr; strategy; computed_at = tau; contents = relation; texp; validity }

let current v ~tau = Relation.exp tau v.contents
let is_expired v ~tau = Time.(tau >= v.texp)

let read v ~tau =
  if Time.(tau >= v.computed_at) && not (is_expired v ~tau) then
    `Valid (current v ~tau)
  else `Expired v.texp

let read_schrodinger v ~tau ~policy =
  match Validity.observe ~policy ~validity:v.validity tau with
  | Validity.Answer_now -> `Valid (current v ~tau)
  | other -> `Observe other

let refresh ~env ~tau v = materialise ~strategy:v.strategy ~env ~tau v.expr

let maintenance_times ?(strategy = Aggregate.Exact) ~env ~from ~horizon expr =
  let rec go acc tau =
    let texp = (Eval.run ~strategy ~env ~tau expr).Eval.texp in
    if Time.(texp < horizon) then
      (* texp(e) > tau always holds (expiration times of live tuples
         exceed tau), so the schedule advances strictly. *)
      go (texp :: acc) texp
    else List.rev acc
  in
  go [] from
