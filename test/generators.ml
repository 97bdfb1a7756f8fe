(* Shared QCheck generators.  Small value and time ranges on purpose: they
   force duplicate tuples, coinciding expiration times and non-trivial
   partitions — the corners the paper's machinery is about. *)

open Expirel_core
module Gen = QCheck2.Gen

let max_finite_time = 24

let time_finite : Time.t Gen.t =
  Gen.map Time.of_int (Gen.int_range 0 max_finite_time)

(* Expiration times of stored tuples: strictly positive, sometimes
   infinite. *)
let texp : Time.t Gen.t =
  Gen.frequency
    [ 8, Gen.map Time.of_int (Gen.int_range 1 max_finite_time);
      1, Gen.return Time.Inf ]

let small_value : Value.t Gen.t =
  Gen.frequency
    [ 8, Gen.map Value.int (Gen.int_range (-3) 4);
      1, Gen.return Value.Null ]

let small_value_no_null : Value.t Gen.t =
  Gen.map Value.int (Gen.int_range (-3) 4)

let tuple ~arity : Tuple.t Gen.t =
  Gen.map Tuple.of_list (Gen.list_size (Gen.return arity) small_value)

let tuple_no_null ~arity : Tuple.t Gen.t =
  Gen.map Tuple.of_list (Gen.list_size (Gen.return arity) small_value_no_null)

let relation ~arity : Relation.t Gen.t =
  let row = Gen.pair (tuple ~arity) texp in
  Gen.map (Relation.of_list ~arity) (Gen.list_size (Gen.int_range 0 12) row)

(* Null-free variant: the paper's data model has no nulls, and some
   identities (e.g. the Eq (6) intersection rewrite) only hold under
   literal equality, which SQL-style null comparisons break. *)
let relation_no_null ~arity : Relation.t Gen.t =
  let row = Gen.pair (tuple_no_null ~arity) texp in
  Gen.map (Relation.of_list ~arity) (Gen.list_size (Gen.int_range 0 12) row)

(* A fixed environment shape: two unary, two binary and one ternary base
   relation, freshly generated each run. *)
let env_bindings : (string * Relation.t) list Gen.t =
  let open Gen in
  let* r1 = relation ~arity:1 in
  let* s1 = relation ~arity:1 in
  let* r2 = relation ~arity:2 in
  let* s2 = relation ~arity:2 in
  let* r3 = relation ~arity:3 in
  return [ "R1", r1; "S1", s1; "R2", r2; "S2", s2; "R3", r3 ]

let base_names_of_arity = function
  | 1 -> [ "R1"; "S1" ]
  | 2 -> [ "R2"; "S2" ]
  | 3 -> [ "R3" ]
  | _ -> []

let operand ~arity : Predicate.operand Gen.t =
  Gen.frequency
    [ 2, Gen.map (fun j -> Predicate.Col j) (Gen.int_range 1 arity);
      1, Gen.map (fun v -> Predicate.Const v) small_value ]

let cmp : Predicate.cmp Gen.t =
  Gen.oneofl [ Predicate.Eq; Predicate.Neq; Predicate.Lt; Predicate.Le;
               Predicate.Gt; Predicate.Ge ]

let predicate ~arity : Predicate.t Gen.t =
  let open Gen in
  let atom =
    let* op = cmp in
    let* a = operand ~arity in
    let* b = operand ~arity in
    return (Predicate.Cmp (op, a, b))
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [ 4, atom;
          1, map2 (fun a b -> Predicate.And (a, b)) (go (depth - 1)) (go (depth - 1));
          1, map2 (fun a b -> Predicate.Or (a, b)) (go (depth - 1)) (go (depth - 1));
          1, map (fun a -> Predicate.Not a) (go (depth - 1)) ]
  in
  go 2

let projection ~source_arity ~target_arity : int list Gen.t =
  Gen.list_size (Gen.return target_arity) (Gen.int_range 1 source_arity)

let agg_func ~arity : Aggregate.func Gen.t =
  let open Gen in
  let attr = int_range 1 arity in
  oneof
    [ return Aggregate.Count;
      map (fun i -> Aggregate.Sum i) attr;
      map (fun i -> Aggregate.Min i) attr;
      map (fun i -> Aggregate.Max i) attr;
      map (fun i -> Aggregate.Avg i) attr ]

(* [aggregated], of [arity] columns with the aggregate last, as sqlx
   lowers a GROUP BY: under a projection of GROUP BY positions that
   keeps the aggregate, maybe over a HAVING on those positions. *)
let lowered_group ~arity group aggregated : Algebra.t Gen.t =
  let open Gen in
  let kept = group @ [ arity ] in
  let* others = list_size (return (arity - 1)) (oneofl kept) in
  let* projection = shuffle_l (arity :: others) in
  let* having =
    frequency
      [ (2, return None);
        (1, map Option.some (predicate ~arity:(List.length kept))) ]
  in
  let on_kept p =
    Option.get (Predicate.rename (fun c -> List.nth_opt kept (c - 1)) p)
  in
  return
    (Algebra.project projection
       (Option.fold having ~none:aggregated ~some:(fun h ->
            Algebra.select (on_kept h) aggregated)))

(* Arity-directed expression generator.  [allow_non_monotonic] gates Diff
   and Aggregate; [lowered_aggregates] draws each aggregate as sqlx
   lowers it ({!lowered_group}), the only shape the planner accepts,
   rather than bare as the paper's algebra allows. *)
let expr ?(allow_non_monotonic = true) ?(lowered_aggregates = false) ~arity ()
  : Algebra.t Gen.t =
  let open Gen in
  let base_of a =
    match base_names_of_arity a with
    | [] -> None
    | names -> Some (map Algebra.base (oneofl names))
  in
  let rec go ~arity ~depth =
    let leaf =
      match base_of arity with
      | Some g -> g
      | None ->
        (* No base with this arity: project a wider base down. *)
        let source = if arity <= 3 then 3 else 3 in
        let* js = projection ~source_arity:source ~target_arity:arity in
        return (Algebra.project js (Algebra.base "R3"))
    in
    if depth = 0 then leaf
    else
      let recur a = go ~arity:a ~depth:(depth - 1) in
      let monotonic_cases =
        [ (3, leaf);
          (2,
           let* p = predicate ~arity in
           let* e = recur arity in
           return (Algebra.select p e));
          (2,
           let* source_arity = int_range arity (min 4 (arity + 2)) in
           let* js = projection ~source_arity ~target_arity:arity in
           let* e = recur source_arity in
           return (Algebra.project js e));
          (2, map2 Algebra.union (recur arity) (recur arity));
          (1, map2 Algebra.intersect (recur arity) (recur arity)) ]
        @ (if arity >= 2 && arity <= 4 then
             [ (1,
                let* left = int_range 1 (arity - 1) in
                let right = arity - left in
                let* l = recur left in
                let* r = recur right in
                frequency
                  [ 1, return (Algebra.product l r);
                    1,
                    (let* p = predicate ~arity in
                     return (Algebra.join p l r)) ])
             ]
           else [])
      in
      let non_monotonic_cases =
        if not allow_non_monotonic then []
        else
          [ (1, map2 Algebra.diff (recur arity) (recur arity)) ]
          @
          if arity >= 2 then
            [ (1,
               let inner = arity - 1 in
               let* group =
                 list_size (int_range 1 (min 2 inner)) (int_range 1 inner)
               in
               let* f = agg_func ~arity:inner in
               let* e = recur inner in
               let aggregated = Algebra.aggregate group f e in
               if lowered_aggregates then lowered_group ~arity group aggregated
               else return aggregated)
            ]
          else []
      in
      frequency (monotonic_cases @ non_monotonic_cases)
  in
  let* depth = int_range 0 3 in
  go ~arity ~depth

(* An (expression, environment) pair ready for evaluation. *)
let expr_and_env ?allow_non_monotonic ?lowered_aggregates () :
  (Algebra.t * (string * Relation.t) list) Gen.t =
  let open Gen in
  let* arity = int_range 1 3 in
  let* e = expr ?allow_non_monotonic ?lowered_aggregates ~arity () in
  let* bindings = env_bindings in
  return (e, bindings)

(* [R1 − (S1 − π₁ R2)]: a difference nested on the right of another,
   whose rows leave the result at [texp(e)] refreshes and not only by
   expiring — a shape {!expr} seldom builds. *)
let nested_difference =
  Algebra.(diff (base "R1") (diff (base "S1") (project [ 1 ] (base "R2"))))

(* A COUNT grouped straight over a base, maybe selected, under a
   projection that keeps or drops the GROUP BY values and maybe a
   HAVING: the shape a standing COUNT keeps per-group state for. *)
let grouped_count : Algebra.t Gen.t =
  let open Gen in
  let* name, arity = oneofl [ ("R2", 2); ("S2", 2); ("R3", 3) ] in
  let* group = list_size (int_range 1 2) (int_range 1 arity) in
  let* child =
    frequency
      [ (2, return (Algebra.base name));
        (1, map (fun p -> Algebra.select p (Algebra.base name)) (predicate ~arity)) ]
  in
  let count = arity + 1 in
  let* projection = oneofl [ group @ [ count ]; [ count ]; count :: List.rev group ] in
  let* having = opt (int_range 1 3) in
  let grouped = Algebra.aggregate group Aggregate.Count child in
  return
    (Algebra.project projection
       (Option.fold having ~none:grouped ~some:(fun n ->
            Algebra.select
              Predicate.(Cmp (Gt, Col count, Const (Value.int n)))
              grouped)))

(* {!expr_and_env} with its aggregates as sqlx lowers them (the
   planner's input), or one time in four {!nested_difference}. *)
let expr_and_env_or_nested_difference () :
  (Algebra.t * (string * Relation.t) list) Gen.t =
  Gen.frequency
    [ (3, expr_and_env ~lowered_aggregates:true ());
      (1, Gen.map (fun bindings -> (nested_difference, bindings)) env_bindings) ]

(* Aggregation partitions: lists of (tuple, texp) sharing nothing in
   particular; small values create ties, zeros, and neutral slices. *)
let partition ~arity : (Tuple.t * Time.t) list Gen.t =
  Gen.list_size (Gen.int_range 1 8) (Gen.pair (tuple ~arity) texp)

(* Write histories are generated as WAL records whose times count from
   the clock they are written at: [at_clock now] makes an [Insert]'s
   texp (its TTL) and an [Advance]'s target (its step) absolute. *)
let at_clock now = function
  | Expirel_storage.Wal.Insert r ->
    Expirel_storage.Wal.Insert { r with texp = Time.add now r.texp }
  | Expirel_storage.Wal.Advance step ->
    Expirel_storage.Wal.Advance (Time.add now step)
  | record -> record

let interval : Expirel_paper.Interval.t Gen.t =
  let open Gen in
  let open Expirel_paper in
  let* lo = int_range 0 20 in
  let* len = int_range 1 10 in
  let* unbounded = frequency [ 6, return false; 1, return true ] in
  if unbounded then return (Interval.from (Time.of_int lo))
  else return (Interval.make (Time.of_int lo) (Time.of_int (lo + len)))

let interval_set : Expirel_paper.Interval_set.t Gen.t =
  Gen.map Expirel_paper.Interval_set.of_list (Gen.list_size (Gen.int_range 0 5) interval)

(* Sampling points for comparing interval sets and timelines. *)
let sample_times : Time.t list =
  List.init (max_finite_time + 12) Time.of_int @ [ Time.Inf ]

let to_alcotest = QCheck_alcotest.to_alcotest

let qtest name ?(count = 200) gen law =
  to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* ---------- trace span programs ---------- *)

(* What a request does to its trace: open a span around nested steps,
   raise out of one (caught just outside it), record an externally
   timed span, label or count onto the innermost open span, or spin for
   some microseconds so spans have durations worth subtracting. *)
type span_step =
  | Open of string * span_step list
  | Raise of string * span_step list
  | Record of string * int * int  (* name, start_us, duration_us *)
  | Label of string * string
  | Count of string * int
  | Spin of int

let span_names = [ "parse"; "eval"; "storage"; "op:scan"; "op:hash-join"; "op:"; "o" ]

let span_program : span_step list Gen.t =
  let open Gen in
  let name = oneofl span_names and key = oneofl [ "rows"; "dropped"; "replica" ] in
  let leaf =
    frequency
      [ (2, map3 (fun n s d -> Record (n, s, d)) name (int_range 0 50) (int_range 0 100));
        (2, map2 (fun k v -> Label (k, v)) key (oneofl [ "a"; "42"; "" ]));
        (2, map2 (fun k n -> Count (k, n)) key (int_range (-5) 1000));
        (1, map (fun us -> Spin us) (int_range 0 30)) ]
  in
  sized_size (int_range 1 12) @@ fix (fun self fuel ->
      let body = list_size (int_range 0 3) (self (fuel / 2)) in
      if fuel <= 1 then leaf
      else
        frequency
          [ (2, leaf);
            (3, map2 (fun n b -> Open (n, b)) name body);
            (1, map2 (fun n b -> Raise (n, b)) name body) ])
  |> list_size (int_range 1 4)

let rec spin_until t = if Unix.gettimeofday () < t then spin_until t

(* Runs a program on a live trace. *)
let rec run_span_program tr steps =
  let module Trace = Expirel_obs.Trace in
  List.iter
    (function
      | Open (n, body) -> Trace.span (Some tr) (Trace.name n) (fun () -> run_span_program tr body)
      | Raise (n, body) -> (
        try
          Trace.span (Some tr) (Trace.name n) (fun () ->
              run_span_program tr body;
              raise Exit)
        with Exit -> ())
      | Record (n, start_us, duration_us) ->
        Trace.record tr ~name:(Trace.name n) ~start_us ~duration_us
      | Label (k, v) -> Trace.label (Some tr) (Trace.name k) v
      | Count (k, n) -> Trace.count (Some tr) (Trace.name k) n
      | Spin us -> spin_until (Unix.gettimeofday () +. (float_of_int us *. 1e-6)))
    steps
