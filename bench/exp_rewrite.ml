(* Experiment exp-rewrite (Section 3.1): algebraic rewriting postpones
   recomputation by shrinking the critical tuple set (selection pushdown
   into difference) and by pulling non-monotonic operators up
   (difference over product).

   Expected shape: the rewritten plan never recomputes more often, and
   recomputes strictly less often whenever selections actually filter
   critical tuples. *)

open Expirel_core
open Expirel_paper
open Expirel_workload

let arity_env name =
  match name with
  | "R" | "S" | "T" -> Some 2
  | _ -> None

let recompute_count ~env expr =
  List.length (View.maintenance_times ~env ~from:Time.zero ~horizon:(Time.of_int 200) expr)

let cases =
  let sel v e =
    Algebra.select
      (Predicate.Cmp (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int v)))
      e
  in
  [ "sigma(R - S)  [pushdown shrinks critical set]",
    sel 50 Algebra.(diff (base "R") (base "S"));
    "sigma(sigma(R - S))  [merge then pushdown]",
    sel 80 (sel 50 Algebra.(diff (base "R") (base "S")));
    "(R - S) x T  [difference pull-up]",
    Algebra.(product (diff (base "R") (base "S")) (base "T"));
    "sigma((R - S) x T)  [both]",
    sel 50 Algebra.(product (diff (base "R") (base "S")) (base "T")) ]

let sweep () =
  Bench_util.section "Experiment exp-rewrite: rewriting to postpone recomputation";
  let rng = Bench_util.rng 70 in
  let rel () =
    Gen.relation ~rng ~arity:2 ~cardinality:120 ~values:(Gen.Uniform_value 100)
      ~ttl:(Gen.Uniform_ttl (1, 150)) ~now:Time.zero
  in
  let runs = 10 in
  let rows =
    List.map
      (fun (name, expr) ->
        let rewritten, applications = Rewrite.rewrite ~env:arity_env expr in
        let before = ref 0 and after = ref 0 in
        for _ = 1 to runs do
          let env = Eval.env_of_list [ "R", rel (); "S", rel (); "T", rel () ] in
          before := !before + recompute_count ~env expr;
          after := !after + recompute_count ~env rewritten
        done;
        [ name;
          string_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 applications);
          Bench_util.f1 (float_of_int !before /. float_of_int runs);
          Bench_util.f1 (float_of_int !after /. float_of_int runs) ])
      cases
  in
  Bench_util.table
    ~headers:[ "plan"; "rules fired"; "recomputes/run (original)";
               "recomputes/run (rewritten)" ]
    rows;
  print_endline
    "\nShape check: rewritten plans never recompute more (the property\n\
     tests prove texp(e) only moves later); selective predicates over\n\
     differences cut recomputation counts sharply."

(* Section 3.1's cost estimation: the difference pull-up trades fewer
   recomputations against larger intermediate products.  Sweep how long
   the product's other operand lives: short-lived T kills the rewritten
   plan's critical pairs (pull-up wins); long-lived T keeps them (the
   rewrite buys nothing and costs bigger products). *)
let cost_gated () =
  Bench_util.subsection "cost-gated rewriting: (R - S) x T vs pull-up";
  let rng = Bench_util.rng 75 in
  let original = Algebra.(product (diff (base "R") (base "S")) (base "T")) in
  let pulled =
    Algebra.(diff (product (base "R") (base "T")) (product (base "S") (base "T")))
  in
  let rows =
    List.map
      (fun (label, t_ttl) ->
        let rel card ttl =
          Gen.relation ~rng ~arity:2 ~cardinality:card
            ~values:(Gen.Uniform_value 10_000) ~ttl ~now:Time.zero
        in
        let r = rel 60 (Gen.Uniform_ttl (150, 200)) in
        (* S shares half of R with earlier expirations: critical churn. *)
        let s =
          Relation.fold
            (fun t _ (i, acc) ->
              if i mod 2 = 0 then
                i + 1, Relation.add t ~texp:(Time.of_int (10 + (3 * i))) acc
              else i + 1, acc)
            r
            (0, Relation.empty ~arity:2)
          |> snd
        in
        let env = Eval.env_of_list [ "R", r; "S", s; "T", rel 25 t_ttl ] in
        let chosen, est =
          Cost.choose ~env ~tau:Time.zero ~horizon:(Time.of_int 150)
            [ original; pulled ]
        in
        let name e = if Algebra.equal e original then "original" else "pull-up" in
        let est_of e = Cost.estimate ~env ~tau:Time.zero ~horizon:(Time.of_int 150) e in
        [ label;
          Bench_util.f1 (est_of original).Cost.total;
          Bench_util.f1 (est_of pulled).Cost.total;
          name chosen;
          string_of_int est.Cost.recomputations ])
      [ "T dies early (ttl 1..5)", Gen.Uniform_ttl (1, 5);
        "T medium (ttl 30..60)", Gen.Uniform_ttl (30, 60);
        "T long-lived (ttl 150..200)", Gen.Uniform_ttl (150, 200) ]
  in
  Bench_util.table
    ~headers:[ "workload"; "cost(original)"; "cost(pull-up)"; "chosen";
               "chosen recomputes" ]
    rows;
  print_endline
    "\nShape check: the cost model flips its choice as the trade-off\n\
     between recomputation frequency and intermediate size shifts —\n\
     Section 3.1's \"estimate the impact of a rewrite-rule application\"."

let run_all () =
  sweep ();
  cost_gated ()
