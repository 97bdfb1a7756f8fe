(* Machine checks of the paper's three theorems on randomly generated
   expressions and databases. *)

open Expirel_core
open Expirel_paper

let gen_with_tau gen =
  QCheck2.Gen.pair gen Generators.time_finite

(* Theorem 1: for a monotonic expression materialised at tau, gradually
   expiring the materialisation yields exactly the fresh evaluation at
   every later tau' — including expiration times. *)
let prop_theorem1 =
  Generators.qtest "Theorem 1: monotonic snapshots commute with expiration"
    ~count:300
    (gen_with_tau (Generators.expr_and_env ~allow_non_monotonic:false ()))
    (fun ((e, bindings), tau) ->
      let env = Eval.env_of_list bindings in
      let materialised = Eval.relation_at ~env ~tau e in
      List.for_all
        (fun tau' ->
          if Time.(tau' < tau) then true
          else
            Relation.equal
              (Relation.exp tau' materialised)
              (Eval.relation_at ~env ~tau:tau' e))
        Generators.sample_times)

(* Theorem 2: for any expression (aggregation and difference included),
   the properly expired materialisation equals the fresh evaluation at
   every tau' with tau <= tau' < texp(e).  Checked for each aggregation
   strategy, since each determines its own texp(e). *)
let theorem2_for strategy =
  Generators.qtest
    (Printf.sprintf "Theorem 2 under %s strategy"
       (match strategy with
        | Aggregate.Conservative -> "conservative (Eq 8)"
        | Aggregate.Neutral -> "neutral-set (Table 1)"
        | Aggregate.Exact -> "exact (Eq 9)"
        | Aggregate.Within t -> Printf.sprintf "within %.1f" t))
    ~count:300
    (gen_with_tau (Generators.expr_and_env ()))
    (fun ((e, bindings), tau) ->
      let env = Eval.env_of_list bindings in
      let { Eval.relation = materialised; texp } = Eval.run ~strategy ~env ~tau e in
      List.for_all
        (fun tau' ->
          if Time.(tau' < tau) || Time.(tau' >= texp) then true
          else
            Relation.equal
              (Relation.exp tau' materialised)
              (Eval.relation_at ~strategy ~env ~tau:tau' e))
        Generators.sample_times)

let prop_theorem2_conservative = theorem2_for Aggregate.Conservative
let prop_theorem2_neutral = theorem2_for Aggregate.Neutral
let prop_theorem2_exact = theorem2_for Aggregate.Exact

(* Theorem 2's bound is tight for difference: at texp(e) itself the
   materialisation must actually differ from a recomputation whenever the
   expiration was caused by a reappearing tuple. *)
let prop_difference_bound_tight =
  Generators.qtest "difference: invalid at texp(e) when caused by reappearance"
    ~count:300
    (QCheck2.Gen.pair (Generators.relation ~arity:1) (Generators.relation ~arity:1))
    (fun (r, s) ->
      let env = Eval.env_of_list [ "R", r; "S", s ] in
      let e = Algebra.(diff (base "R") (base "S")) in
      let { Eval.relation = materialised; texp } = Eval.run ~env ~tau:Time.zero e in
      match texp with
      | Time.Inf -> true
      | Time.Fin _ ->
        (* texp(e) finite for a difference only via case (3a); then the
           recomputation at texp(e) contains a tuple the materialisation
           lacks. *)
        not
          (Relation.equal_tuples
             (Relation.exp texp materialised)
             (Eval.relation_at ~env ~tau:texp e)))

(* Theorem 3: the patched difference view equals a fresh evaluation at
   every later time, with no recomputation. *)
let prop_theorem3 =
  Generators.qtest "Theorem 3: patched difference never needs recomputation"
    ~count:300
    (QCheck2.Gen.pair
       (QCheck2.Gen.pair
          (* Monotonic operands: Theorem 3 assumes the difference's
             argument relations evolve by expiration alone, which is what
             Theorem 1 guarantees for monotonic subexpressions. *)
          (Generators.expr ~allow_non_monotonic:false ~arity:2 ())
          (Generators.expr ~allow_non_monotonic:false ~arity:2 ()))
       Generators.env_bindings)
    (fun ((left, right), bindings) ->
      let env = Eval.env_of_list bindings in
      let patched = ref (Patch.create ~env ~tau:Time.zero ~left ~right) in
      let fresh tau = Eval.relation_at ~env ~tau Algebra.(diff left right) in
      List.for_all
        (fun tau ->
          if Time.is_infinite tau then true
          else begin
            let served, next = Patch.read !patched ~tau in
            patched := next;
            Relation.equal served (fresh tau)
          end)
        Generators.sample_times)

let suite =
  [ prop_theorem1;
    prop_theorem2_conservative;
    prop_theorem2_neutral;
    prop_theorem2_exact;
    prop_difference_bound_tight;
    prop_theorem3 ]
