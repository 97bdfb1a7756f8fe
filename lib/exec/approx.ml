open Expirel_core
module Sketch = Expirel_sketch

type spec =
  | Count of { epsilon : float }
  | Sample of { k : int }

let name = function
  | Count { epsilon } -> Printf.sprintf "approx_count(%g)" epsilon
  | Sample { k } -> Printf.sprintf "sample(%d)" k

let columns spec ~child =
  match spec with
  | Count _ -> [ "approx_count"; "within" ]
  | Sample _ -> child

let build spec ~arity iter =
  match spec with
  | Count { epsilon } ->
    let c = Sketch.Counter.create ~epsilon in
    iter (fun _get texp -> Sketch.Counter.add c ~texp);
    Sketch.Any.Counter c
  | Sample { k } ->
    let s = Sketch.Sample.create ~k () in
    iter (fun get texp ->
        Sketch.Sample.add s (List.init arity (fun j -> get (j + 1))) ~texp);
    Sketch.Any.Sample s

let result ~tau ~arity ~child_texp sketch =
  let rows, horizon = Sketch.Any.query_rows ~tau sketch in
  (* Rows keep their tuple-level texps (a sampled row outlives the
     answer's stability just like any projection row would); the
     expression-level texp(e) is capped by both the child's
     materialisation and the sketch's own horizon. *)
  let relation =
    List.fold_left
      (fun acc (vs, row_texp) ->
        Relation.add (Tuple.of_list vs) ~texp:row_texp acc)
      (Relation.empty ~arity) rows
  in
  { Eval.relation; texp = Time.min child_texp horizon }
