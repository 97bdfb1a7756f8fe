(* Two Pareto staircases over (value, texp).

   A point can be the live maximum at some tau only if no other point
   has both a value and a texp at least as large — the survivors,
   sorted by ascending texp, have strictly descending values, and the
   live max at tau is the first survivor with [texp > tau].  Dually for
   the minimum.  ε-thinning drops a survivor whose value is within
   ε·range of the longer-lived survivor answering after it, giving the
   additive 2ε·range bound on the diameter. *)

open Expirel_core

type point = {
  v : float;
  p_texp : Time.t;
}

type t = {
  eps : float;
  mutable upper : point list;  (* ascending texp, descending v *)
  mutable lower : point list;  (* ascending texp, ascending v *)
  mutable total : int;
  mutable vmin : float;
  mutable vmax : float;
  mutable compress_at : int;
}

let min_capacity = 64

let create ~epsilon =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Spread.create: epsilon must be in (0, 1)";
  { eps = epsilon;
    upper = [];
    lower = [];
    total = 0;
    vmin = 0.;
    vmax = 0.;
    compress_at = min_capacity
  }

let epsilon t = t.eps
let total t = t.total
let points t = List.length t.upper + List.length t.lower

let rec insert_upper pts p =
  match pts with
  | [] -> [ p ]
  | q :: rest ->
    if Time.(q.p_texp >= p.p_texp) then
      if q.v >= p.v then q :: rest (* dominated *) else p :: q :: rest
    else if q.v <= p.v then insert_upper rest p (* q dominated *)
    else q :: insert_upper rest p

let rec insert_lower pts p =
  match pts with
  | [] -> [ p ]
  | q :: rest ->
    if Time.(q.p_texp >= p.p_texp) then
      if q.v <= p.v then q :: rest else p :: q :: rest
    else if q.v >= p.v then insert_lower rest p
    else q :: insert_lower rest p

(* Thin from the longest-lived survivor backwards: an earlier-expiring
   point earns its slot only by improving on the last kept answer by
   more than ε·range. *)
let thin ~keep_gap pts =
  match List.rev pts with
  | [] -> []
  | last :: earlier ->
    let kept = ref [ last ] in
    let anchor = ref last in
    List.iter
      (fun p ->
        if keep_gap p !anchor then begin
          kept := p :: !kept;
          anchor := p
        end)
      earlier;
    !kept

let range t = t.vmax -. t.vmin

let prune t =
  let slack = t.eps *. range t in
  t.upper <- thin ~keep_gap:(fun p anchor -> p.v -. anchor.v > slack) t.upper;
  t.lower <- thin ~keep_gap:(fun p anchor -> anchor.v -. p.v > slack) t.lower;
  t.compress_at <- max min_capacity (2 * points t)

let add t v ~texp =
  if t.total = 0 then begin
    t.vmin <- v;
    t.vmax <- v
  end
  else begin
    t.vmin <- Float.min t.vmin v;
    t.vmax <- Float.max t.vmax v
  end;
  t.total <- t.total + 1;
  let p = { v; p_texp = texp } in
  t.upper <- insert_upper t.upper p;
  t.lower <- insert_lower t.lower p;
  if points t > t.compress_at then prune t

type answer = {
  live_min : float;
  live_max : float;
  diameter : float;
  within : float;
  horizon : Time.t;
}

let first_live pts ~tau = List.find_opt (fun p -> Time.(p.p_texp > tau)) pts

let query t ~tau =
  match (first_live t.upper ~tau, first_live t.lower ~tau) with
  | Some up, Some low ->
    Some
      { live_min = low.v;
        live_max = up.v;
        diameter = Float.max 0. (up.v -. low.v);
        within = 2. *. t.eps *. range t;
        horizon = Time.min up.p_texp low.p_texp
      }
  | _ -> None

let merge a b =
  if a.eps <> b.eps then invalid_arg "Spread.merge: epsilon mismatch";
  let merged = create ~epsilon:a.eps in
  merged.total <- a.total + b.total;
  if a.total > 0 && b.total > 0 then begin
    merged.vmin <- Float.min a.vmin b.vmin;
    merged.vmax <- Float.max a.vmax b.vmax
  end
  else if a.total > 0 then begin
    merged.vmin <- a.vmin;
    merged.vmax <- a.vmax
  end
  else begin
    merged.vmin <- b.vmin;
    merged.vmax <- b.vmax
  end;
  merged.upper <- List.fold_left insert_upper a.upper b.upper;
  merged.lower <- List.fold_left insert_lower a.lower b.lower;
  prune merged;
  merged

let memory_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)

let put_point b p =
  Codec.put_f64 b p.v;
  Codec.put_time b p.p_texp

let get_point c =
  let v = Codec.get_f64 c in
  let p_texp = Codec.get_time c in
  { v; p_texp }

let to_string t =
  Codec.encode
    (fun b t ->
      Codec.put_f64 b t.eps;
      Codec.put_int b t.total;
      Codec.put_f64 b t.vmin;
      Codec.put_f64 b t.vmax;
      Codec.put_list b put_point t.upper;
      Codec.put_list b put_point t.lower)
    t

let of_string s =
  Codec.decode ~what:"spread sketch" (fun c ->
      let epsilon = Codec.get_f64 c in
      if not (epsilon > 0. && epsilon < 1.) then Codec.bad "epsilon out of range";
      let t = create ~epsilon in
      t.total <- Codec.get_int c;
      t.vmin <- Codec.get_f64 c;
      t.vmax <- Codec.get_f64 c;
      t.upper <- Codec.get_list c get_point;
      t.lower <- Codec.get_list c get_point;
      t.compress_at <- max min_capacity (2 * points t);
      t)
    s
