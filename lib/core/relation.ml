module Tuple_map = Map.Make (Tuple)

type t = {
  arity : int;
  rows : Time.t Tuple_map.t;
  low : Time.t;
      (* conservative lower bound on the minimum expiration time over
         [rows] (Inf when empty): whenever [low > tau], no tuple has
         expired and [exp tau] is the identity in O(1).  Removals leave
         it stale-low, which only costs a missed fast path, never
         correctness. *)
}

let empty ~arity =
  if arity < 0 then invalid_arg "Relation.empty: negative arity"
  else { arity; rows = Tuple_map.empty; low = Time.Inf }

let arity r = r.arity
let cardinal r = Tuple_map.cardinal r.rows
let is_empty r = Tuple_map.is_empty r.rows

let check_arity r t =
  if Tuple.arity t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation: tuple arity %d, relation arity %d"
         (Tuple.arity t) r.arity)

let add_merge merge t ~texp r =
  check_arity r t;
  let rows =
    Tuple_map.update t
      (function
        | None -> Some texp
        | Some old -> Some (merge old texp))
      r.rows
  in
  (* [texp] bounds the inserted tuple's final time from below under
     either merge (max keeps one of the operands, min keeps the smaller),
     so [min low texp] stays a valid lower bound. *)
  { r with rows; low = Time.min r.low texp }

let add t ~texp r = add_merge Time.max t ~texp r
let add_min t ~texp r = add_merge Time.min t ~texp r

let replace t ~texp r =
  check_arity r t;
  { r with
    rows = Tuple_map.add t texp r.rows;
    low = Time.min r.low texp
  }

let remove t r = { r with rows = Tuple_map.remove t r.rows }
let mem t r = Tuple_map.mem t r.rows
let texp r t = Tuple_map.find t r.rows
let texp_opt r t = Tuple_map.find_opt t r.rows

let exp tau r =
  if Time.(r.low > tau) then r (* nothing expired: O(1) *)
  else
    let low = ref Time.Inf in
    let rows =
      Tuple_map.filter
        (fun _ e ->
          let keep = Time.(e > tau) in
          if keep then low := Time.min !low e;
          keep)
        r.rows
    in
    (* [filter] hands back [r.rows] itself when it drops nothing; the
       bound is made exact either way, so the next [exp] at [tau] is
       O(1). *)
    { r with rows; low = !low }

let of_list ~arity rows =
  List.fold_left (fun r (t, texp) -> add t ~texp r) (empty ~arity) rows

let to_list r = Tuple_map.bindings r.rows
let tuples r = List.map fst (to_list r)
let iter f r = Tuple_map.iter f r.rows
let fold f r acc = Tuple_map.fold f r.rows acc
let filter f r = { r with rows = Tuple_map.filter f r.rows }

let map_tuples ~arity f r =
  fold (fun t texp acc -> add (f t) ~texp acc) r (empty ~arity)

let union_max a b =
  if a.arity <> b.arity then
    invalid_arg "Relation.union_max: arity mismatch (union compatibility)"
  else fold (fun t texp acc -> add t ~texp acc) b a

let equal a b = a.arity = b.arity && Tuple_map.equal Time.equal a.rows b.rows

let equal_tuples a b =
  a.arity = b.arity && Tuple_map.equal (fun _ _ -> true) a.rows b.rows

(* One merge walk in tuple order: [after]'s map iterated against a
   cursor over [before]'s bindings (an iteration and a list walk cost a
   fraction of two [Seq] walks).  A tuple both hold by the same pointer
   (an answer path-copied from the one before) skips the comparison, and
   a texp by the same pointer skips [Time.equal].  The walk counts
   [after]'s rows as it goes, so no caller pays [cardinal]'s walk.  Two
   relations sharing one map differ nowhere. *)
let diff ~limit before after =
  if before.rows == after.rows then Some ([], [], cardinal after)
  else begin
    let n = ref 0 and changes = ref 0 and ups = ref [] and gone = ref [] in
    let rest = ref (Tuple_map.bindings before.rows) in
    let change () =
      incr changes;
      if !changes > limit then raise_notrace Exit
    in
    let rec place tb eb =
      match !rest with
      | [] ->
        change ();
        ups := (tb, eb) :: !ups
      | (ta, ea) :: rest' ->
        let c = if ta == tb then 0 else Tuple.compare ta tb in
        if c < 0 then begin
          change ();
          gone := ta :: !gone;
          rest := rest';
          place tb eb
        end
        else if c > 0 then begin
          change ();
          ups := (tb, eb) :: !ups
        end
        else begin
          rest := rest';
          if not (ea == eb || Time.equal ea eb) then begin
            change ();
            ups := (tb, eb) :: !ups
          end
        end
    in
    match
      Tuple_map.iter
        (fun tb eb ->
          incr n;
          place tb eb)
        after.rows;
      List.iter
        (fun (ta, _) ->
          change ();
          gone := ta :: !gone)
        !rest
    with
    | () -> Some (List.rev !ups, List.rev !gone, !n)
    | exception Exit -> None
  end

let min_texp r = fold (fun _ e acc -> Time.min e acc) r Time.Inf

let max_texp r =
  if is_empty r then Time.Inf
  else fold (fun _ e acc -> Time.max e acc) r (min_texp r)

let expiry_times r =
  let module Time_set = Set.Make (Time) in
  let times =
    fold
      (fun _ e acc -> if Time.is_finite e then Time_set.add e acc else acc)
      r Time_set.empty
  in
  Time_set.elements times

let pp ppf r =
  if is_empty r then Format.pp_print_string ppf "(empty)"
  else
    Format.pp_print_list
      ~pp_sep:Format.pp_print_newline
      (fun ppf (t, e) -> Format.fprintf ppf "%4s | %a" (Time.to_string e) Tuple.pp t)
      ppf (to_list r)

let to_string r = Format.asprintf "%a" pp r
