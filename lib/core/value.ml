type t =
  | Int of int
  | Str of string
  | Float of float
  | Bool of bool
  | Null

let int n = Int n
let str s = Str s
let float f = Float f
let bool b = Bool b

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Float x, Float y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null, Null -> 0
  | (Int _ | Str _ | Float _ | Bool _ | Null), _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let is_null = function
  | Null -> true
  | Int _ | Str _ | Float _ | Bool _ -> false

let cmp a b =
  match a, b with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (Int.compare x y)
  | Float x, Float y -> Some (Float.compare x y)
  | Int x, Float y -> Some (Float.compare (float_of_int x) y)
  | Float x, Int y -> Some (Float.compare x (float_of_int y))
  | Str x, Str y -> Some (String.compare x y)
  | Bool x, Bool y -> Some (Bool.compare x y)
  | (Int _ | Float _ | Str _ | Bool _), _ -> None

let add a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int x, Float y -> Float (float_of_int x +. y)
  | Float x, Int y -> Float (x +. float_of_int y)
  | (Str _ | Bool _), _ | _, (Str _ | Bool _) ->
    invalid_arg "Value.add: non-numeric operand"

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | Str _ | Bool _ | Null -> None

(* Hashing allocates nothing: an integer is mixed in place (a
   multiply, then the high half folded onto the low bits hash tables
   index by), and the other payloads go to [Hashtbl]'s hash seeded by
   the constructor's tag rather than paired with it.  [Hashtbl]'s hash
   maps -0.0 to 0.0 and every NaN payload to one NaN, as [compare]
   does. *)
let hash = function
  | Int n ->
    let h = n * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
  | Str s -> Hashtbl.seeded_hash 4 s
  | Float f -> Hashtbl.seeded_hash 3 f
  | Bool b -> Hashtbl.seeded_hash 1 b
  | Null -> 0

let pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "'%s'" s
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.fprintf ppf "%b" b
  | Null -> Format.pp_print_string ppf "null"

let to_string v = Format.asprintf "%a" pp v
