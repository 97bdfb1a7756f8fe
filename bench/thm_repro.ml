(* Machine checks of Theorems 1-3 at benchmark scale: larger random
   instances than the unit-test suite, with counts reported. *)

open Expirel_core
open Expirel_paper
open Expirel_workload

let random_env rng =
  let rel card =
    Gen.relation ~rng ~arity:2 ~cardinality:card
      ~values:(Gen.Uniform_value 40)
      ~ttl:(Gen.Immortal_share (0.1, Gen.Uniform_ttl (1, 60)))
      ~now:Time.zero
  in
  [ "R", rel 60; "S", rel 60 ]

let sample_times = List.init 24 (fun i -> Time.of_int (3 * i))

let thm1 () =
  Bench_util.section "Theorem 1: monotonic materialisations never decay";
  let rng = Bench_util.rng 1 in
  let shapes =
    [ "sigma_(#2 < 20)(R)",
      Algebra.(
        select
          (Predicate.Cmp (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int 20)))
          (base "R"));
      "pi_2(R)", Algebra.(project [ 2 ] (base "R"));
      "R join_(1=3) S", Algebra.(join (Predicate.eq_cols 1 3) (base "R") (base "S"));
      "R union S", Algebra.(union (base "R") (base "S"));
      "R intersect S", Algebra.(intersect (base "R") (base "S")) ]
  in
  let rows =
    List.map
      (fun (name, expr) ->
        let checks = ref 0 and holds = ref true in
        for _ = 1 to 8 do
          let env = Eval.env_of_list (random_env rng) in
          let materialised = Eval.relation_at ~env ~tau:Time.zero expr in
          List.iter
            (fun tau ->
              incr checks;
              if
                not
                  (Relation.equal
                     (Relation.exp tau materialised)
                     (Eval.relation_at ~env ~tau expr))
              then holds := false)
            sample_times
        done;
        [ name; string_of_int !checks; (if !holds then "holds" else "VIOLATED") ])
      shapes
  in
  Bench_util.table ~headers:[ "expression"; "snapshot checks"; "verdict" ] rows

let thm2 () =
  Bench_util.section "Theorem 2: valid exactly until texp(e)";
  let rng = Bench_util.rng 2 in
  let shapes =
    [ "R -exp S", Algebra.(diff (base "R") (base "S"));
      "pi_1(R) -exp pi_1(S)",
      Algebra.(diff (project [ 1 ] (base "R")) (project [ 1 ] (base "S")));
      "agg count by #1", Algebra.(aggregate [ 1 ] Aggregate.Count (base "R"));
      "agg sum_2 by #1", Algebra.(aggregate [ 1 ] (Aggregate.Sum 2) (base "R"));
      "agg min_2 by #1", Algebra.(aggregate [ 1 ] (Aggregate.Min 2) (base "R")) ]
  in
  let rows =
    List.concat_map
      (fun (name, expr) ->
        List.map
          (fun strategy ->
            let label =
              match strategy with
              | Aggregate.Conservative -> "conservative"
              | Aggregate.Neutral -> "neutral"
              | Aggregate.Exact -> "exact"
              | Aggregate.Within t -> Printf.sprintf "within %.1f" t
            in
            let checks = ref 0 and holds = ref true and finite = ref 0 in
            for _ = 1 to 6 do
              let env = Eval.env_of_list (random_env rng) in
              let { Eval.relation; texp } = Eval.run ~strategy ~env ~tau:Time.zero expr in
              if Time.is_finite texp then incr finite;
              List.iter
                (fun tau ->
                  if Time.(tau < texp) then begin
                    incr checks;
                    if
                      not
                        (Relation.equal
                           (Relation.exp tau relation)
                           (Eval.relation_at ~strategy ~env ~tau expr))
                    then holds := false
                  end)
                sample_times
            done;
            [ name; label; string_of_int !checks;
              Printf.sprintf "%d/6" !finite;
              (if !holds then "holds" else "VIOLATED") ])
          [ Aggregate.Conservative; Aggregate.Neutral; Aggregate.Exact ])
      shapes
  in
  Bench_util.table
    ~headers:[ "expression"; "strategy"; "checks before texp(e)";
               "finite texp(e)"; "verdict" ]
    rows

let thm3 () =
  Bench_util.section "Theorem 3: patched differences never recompute";
  let rng = Bench_util.rng 3 in
  let runs = 10 in
  let checks = ref 0 and holds = ref true and total_queue = ref 0 in
  for _ = 1 to runs do
    let env = Eval.env_of_list (random_env rng) in
    let patched =
      ref
        (Patch.create ~env ~tau:Time.zero ~left:(Algebra.base "R")
           ~right:(Algebra.base "S"))
    in
    total_queue := !total_queue + Patch.pending !patched;
    List.iter
      (fun tau ->
        incr checks;
        let served, next = Patch.read !patched ~tau in
        patched := next;
        if
          not
            (Relation.equal served
               (Eval.relation_at ~env ~tau Algebra.(diff (base "R") (base "S"))))
        then holds := false)
      sample_times
  done;
  Bench_util.table
    ~headers:[ "runs"; "timeline checks"; "mean queue size"; "verdict" ]
    [ [ string_of_int runs;
        string_of_int !checks;
        Bench_util.f1 (float_of_int !total_queue /. float_of_int runs);
        (if !holds then "holds" else "VIOLATED") ] ]

let run_all () =
  thm1 ();
  thm2 ();
  thm3 ()
