type t = Value.t array

let of_list vs = Array.of_list vs
let of_array a = Array.copy a
let init ~arity f = Array.init arity (fun i -> f (i + 1))
let to_list t = Array.to_list t
let arity t = Array.length t

let attr t i =
  if i < 1 || i > Array.length t then
    invalid_arg
      (Printf.sprintf "Tuple.attr: position %d outside 1..%d" i
         (Array.length t))
  else t.(i - 1)

let project js t = Array.of_list (List.map (attr t) js)
let concat r s = Array.append r s

let split ~left_arity t =
  if left_arity < 0 || left_arity > Array.length t then
    invalid_arg "Tuple.split: bad left_arity"
  else
    ( Array.sub t 0 left_arity,
      Array.sub t left_arity (Array.length t - left_arity) )

(* Closed loops over equal-length tuples from position [i]: a
   comparison allocates no closure. *)
let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let rec equal_from a b i =
  i >= Array.length a || (Value.compare a.(i) b.(i) = 0 && equal_from a b (i + 1))

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from a b 0

let equal a b = Array.length a = Array.length b && equal_from a b 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let ints ns = of_list (List.map Value.int ns)

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t
