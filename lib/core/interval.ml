type t = {
  lo : Time.t;
  hi : Time.t;
}

let make lo hi =
  if Time.(lo < hi) then { lo; hi }
  else
    invalid_arg
      (Printf.sprintf "Interval.make: [%s, %s[ is empty" (Time.to_string lo)
         (Time.to_string hi))

let make_opt lo hi = if Time.(lo < hi) then Some { lo; hi } else None
let from lo = make lo Time.Inf
let bounds i = i.lo, i.hi
let equal a b = Time.equal a.lo b.lo && Time.equal a.hi b.hi

(* An unbounded interval [lo, Inf[ means "from lo onwards" and so
   contains the symbolic time Inf; bounded intervals are half-open. *)
let mem tau i =
  Time.(i.lo <= tau)
  && (Time.(tau < i.hi) || (Time.is_infinite tau && Time.is_infinite i.hi))

let duration i =
  match i.lo, i.hi with
  | Time.Fin a, Time.Fin b -> Time.Fin (b - a)
  | _, Time.Inf -> Time.Inf
  | Time.Inf, Time.Fin _ -> assert false (* lo < hi forbids this *)

let overlaps a b = Time.(a.lo < b.hi) && Time.(b.lo < a.hi)
let adjacent a b = Time.equal a.hi b.lo || Time.equal b.hi a.lo

let inter a b =
  make_opt (Time.max a.lo b.lo) (Time.min a.hi b.hi)

let union a b =
  if overlaps a b || adjacent a b then
    Some { lo = Time.min a.lo b.lo; hi = Time.max a.hi b.hi }
  else None

let subset a b = Time.(b.lo <= a.lo) && Time.(a.hi <= b.hi)
let pp ppf i = Format.fprintf ppf "[%a, %a[" Time.pp i.lo Time.pp i.hi
