(* Experiment exp-qos (future work: "query processing with (approximate)
   quality of service guarantees"): how many validity promises can be
   made statically — from base-relation lifetime floors alone — without
   evaluating the query?

   Expected shape: monotonic requests are always admitted statically;
   non-monotonic ones are admitted up to the floor, which is sound but
   conservative (the measured texp(e) gap shows the slack); static
   admission costs microseconds while evaluation costs milliseconds. *)

open Expirel_core
open Expirel_paper
open Expirel_workload

let shapes =
  [ "sigma(R) (monotonic)",
    Algebra.(
      select
        (Predicate.Cmp (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int 500)))
        (base "R"));
    "R - S", Algebra.(diff (base "R") (base "S"));
    "agg min_2 by #1 (R)", Algebra.(aggregate [ 1 ] (Aggregate.Min 2) (base "R")) ]

let sweep () =
  Bench_util.section "Experiment exp-qos: static validity guarantees";
  let rng = Bench_util.rng 87 in
  let make_env () =
    let rel () =
      Gen.relation ~rng ~arity:2 ~cardinality:400 ~values:(Gen.Uniform_value 1000)
        ~ttl:(Gen.Uniform_ttl (20, 120)) ~now:Time.zero
    in
    Eval.env_of_list [ "R", rel (); "S", rel () ]
  in
  let runs = 25 in
  let requirements = [ 5; 15; 40 ] in
  let rows =
    List.concat_map
      (fun (name, expr) ->
        List.map
          (fun required ->
            let guaranteed = ref 0 and would_hold = ref 0 in
            let floor_total = ref 0. and texp_total = ref 0. and finite = ref 0 in
            for _ = 1 to runs do
              let env = make_env () in
              (match Qos.admit ~env ~tau:Time.zero ~required expr with
               | `Guaranteed -> incr guaranteed
               | `Must_evaluate -> ());
              let texp = Eval.expression_texp ~env ~tau:Time.zero expr in
              if Time.(texp >= Time.of_int required) then incr would_hold;
              let floor =
                Qos.validity_floor ~remaining:(Qos.remaining_of ~env ~tau:Time.zero)
                  expr
              in
              (match floor, texp with
               | Time.Fin f, Time.Fin t ->
                 floor_total := !floor_total +. float_of_int f;
                 texp_total := !texp_total +. float_of_int t;
                 incr finite
               | _ -> ())
            done;
            [ name;
              string_of_int required;
              Printf.sprintf "%d/%d" !guaranteed runs;
              Printf.sprintf "%d/%d" !would_hold runs;
              (if !finite = 0 then "-"
               else
                 Printf.sprintf "%.0f vs %.0f"
                   (!floor_total /. float_of_int !finite)
                   (!texp_total /. float_of_int !finite)) ])
          requirements)
      shapes
  in
  Bench_util.table
    ~headers:[ "expression"; "required ticks"; "admitted statically";
               "actually holds"; "mean floor vs texp(e)" ]
    rows;
  print_endline
    "\nShape check: static admission never over-promises (admitted <=\n\
     holds, property-tested); monotonic views are always admissible; the\n\
     floor's conservatism is the gap between the two columns."

let run_all () = sweep ()
