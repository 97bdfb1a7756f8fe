open Expirel_core

type t =
  | Counter of Counter.t
  | Sample of Sample.t

let kind = function
  | Counter _ -> "counter"
  | Sample _ -> "sample"

let merge a b =
  match (a, b) with
  | Counter x, Counter y ->
    if Counter.epsilon x <> Counter.epsilon y then
      Error "cannot merge counter sketches with different epsilons"
    else Ok (Counter (Counter.merge x y))
  | Sample x, Sample y ->
    if Sample.k x <> Sample.k y then
      Error "cannot merge sample sketches with different k"
    else Ok (Sample (Sample.merge x y))
  | _ ->
    Error
      (Printf.sprintf "cannot merge a %s sketch with a %s sketch" (kind a)
         (kind b))

let query_rows ~tau = function
  | Counter c ->
    let { Counter.estimate; within; horizon } = Counter.query c ~tau in
    ( [ ([ Value.Int (int_of_float (Float.round estimate)); Value.Float within ],
         horizon)
      ],
      horizon )
  | Sample s ->
    let rows = Sample.query s ~tau in
    (rows, Sample.horizon s ~tau)

let live_estimate ~tau = function
  | Counter c -> (Counter.query c ~tau).Counter.estimate
  | Sample s -> float_of_int (List.length (Sample.query s ~tau))

let memory_bytes = function
  | Counter c -> Counter.memory_bytes c
  | Sample s -> Sample.memory_bytes s

let to_string t =
  let tag, payload =
    match t with
    | Counter c -> ('\001', Counter.to_string c)
    | Sample s -> ('\002', Sample.to_string s)
  in
  String.make 1 tag ^ payload

let of_string s =
  if String.length s < 1 then Error "sketch payload: empty"
  else
    let payload = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | '\001' -> Result.map (fun c -> Counter c) (Counter.of_string payload)
    | '\002' -> Result.map (fun x -> Sample x) (Sample.of_string payload)
    | c -> Error (Printf.sprintf "sketch payload: bad kind tag %d" (Char.code c))
