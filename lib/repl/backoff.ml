type t = {
  base : float;
  cap : float;
  rng : Random.State.t;
  mutable attempts : int;
}

let create ?(base = 0.05) ?(cap = 2.0) ?seed () =
  let rng =
    match seed with
    | Some n -> Random.State.make [| n |]
    | None -> Random.State.make_self_init ()
  in
  { base; cap; rng; attempts = 0 }

let next t =
  let span = Float.min t.cap (t.base *. (2.0 ** float_of_int t.attempts)) in
  t.attempts <- t.attempts + 1;
  (* Equal jitter: never less than half the span (no thundering retry),
     never more than the span (the cap means what it says). *)
  (span /. 2.0) +. Random.State.float t.rng (span /. 2.0)

let reset t = t.attempts <- 0
