(* Bechamel micro-benchmarks: one Test.make per reproduced table/figure
   (the cost of evaluating it) plus the hot paths of every substrate.
   Results are OLS estimates of time per run on the monotonic clock. *)

open Bechamel
open Expirel_core
open Expirel_paper
open Expirel_workload

let fig_env = News.figure1_env

let fixture ~cardinality =
  let rng = Bench_util.rng 99 in
  let rel () =
    Gen.relation ~rng ~arity:2 ~cardinality ~values:(Gen.Uniform_value 200)
      ~ttl:(Gen.Uniform_ttl (1, 100)) ~now:Time.zero
  in
  Eval.env_of_list [ "R", rel (); "S", rel () ]

let env500 = fixture ~cardinality:500

let eval_test name expr env =
  Test.make ~name (Staged.stage (fun () -> Eval.run ~env ~tau:Time.zero expr))

(* One benchmark per paper artefact: the cost of regenerating it. *)
let figure_tests =
  [ eval_test "fig2:pi_2(Pol)" Algebra.(project [ 2 ] (base "Pol")) fig_env;
    eval_test "fig2:join" Algebra.(join (Predicate.eq_cols 1 3) (base "Pol") (base "El")) fig_env;
    eval_test "fig3:histogram"
      Algebra.(project [ 2; 3 ] (aggregate [ 2 ] Aggregate.Count (base "Pol")))
      fig_env;
    eval_test "fig3:difference"
      Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))
      fig_env;
    eval_test "tab2:diff-texp" Algebra.(diff (base "Pol") (base "El")) fig_env ]

(* Substrate hot paths at realistic size. *)
let scale_tests =
  let diff500 = Algebra.(diff (base "R") (base "S")) in
  let agg500 = Algebra.(aggregate [ 1 ] (Aggregate.Min 2) (base "R")) in
  [ eval_test "eval:diff-500" diff500 env500;
    eval_test "eval:agg-min-500" agg500 env500;
    Test.make ~name:"validity:diff-500"
      (Staged.stage (fun () ->
           Validity.expression_validity ~env:env500 ~tau:Time.zero diff500));
    Test.make ~name:"patch:create-500"
      (Staged.stage (fun () ->
           Patch.create ~env:env500 ~tau:Time.zero ~left:(Algebra.base "R")
             ~right:(Algebra.base "S")));
    Test.make ~name:"rewrite:pushdown"
      (Staged.stage (fun () ->
           Rewrite.rewrite
             ~env:(fun _ -> Some 2)
             Algebra.(
               select
                 (Predicate.Cmp
                    (Predicate.Lt, Predicate.Col 2, Predicate.Const (Value.int 10)))
                 (diff (base "R") (base "S"))))) ]

let index_tests =
  let open Expirel_baselines in
  let make_backend name backend =
    Test.make ~name
      (Staged.stage (fun () ->
           let idx = Expiration_index.create backend in
           for id = 0 to 999 do
             Expiration_index.add idx ~id ~texp:(Time.of_int (1 + ((id * 7) mod 500)))
           done;
           let out = ref 0 in
           for step = 1 to 10 do
             out := !out + List.length (Expiration_index.expire_upto idx (Time.of_int (step * 50)))
           done;
           !out))
  in
  [ make_backend "index:scan-1k" `Scan;
    make_backend "index:heap-1k" `Heap;
    make_backend "index:wheel-1k" `Wheel ]

(* Hot paths of the later substrates. *)
let substrate_tests =
  let open Expirel_storage in
  let diff500 = Algebra.(diff (base "R") (base "S")) in
  [ Test.make ~name:"maintained:insert-500"
      (let v =
         Maintained.materialise ~env:env500 ~tau:Time.zero
           Algebra.(aggregate [ 1 ] Aggregate.Count (base "R"))
       in
       let tuple = Tuple.ints [ 3; 3 ] in
       Staged.stage (fun () ->
           Maintained.insert v ~relation:"R" tuple ~texp:(Time.of_int 10)));
    Test.make ~name:"schrodinger:materialise-500"
      (Staged.stage (fun () ->
           Schrodinger_view.materialise ~env:env500 ~tau:Time.zero diff500));
    Test.make ~name:"qos:floor"
      (let remaining = Qos.remaining_of ~env:env500 ~tau:Time.zero in
       Staged.stage (fun () -> Qos.validity_floor ~remaining diff500));
    Test.make ~name:"wal:encode-decode"
      (let record =
         Wal.Insert
           { table = "sessions"; tuple = Tuple.ints [ 1; 2 ]; texp = Time.of_int 9 }
       in
       Staged.stage (fun () -> Wal.decode (Wal.encode record)));
    Test.make ~name:"antijoin:hash-500"
      (let r = Eval.relation_at ~env:env500 ~tau:Time.zero (Algebra.base "R") in
       let s = Eval.relation_at ~env:env500 ~tau:Time.zero (Algebra.base "S") in
       Staged.stage (fun () -> Antijoin.diff Antijoin.Hash r s));
    Test.make ~name:"access:index-probe"
      (let db = Database.create () in
       let tbl = Database.create_table db ~name:"t" ~columns:[ "a"; "b" ] in
       let rng = Bench_util.rng 98 in
       for i = 1 to 5_000 do
         Table.insert tbl
           (Tuple.ints [ i; Random.State.int rng 1_000 ])
           ~texp:(Time.of_int (1 + Random.State.int rng 500))
       done;
       Table.create_index tbl ~column:2;
       let plan =
         Expirel_exec.Planner.plan ~db
           Algebra.(select (Predicate.eq_const 2 (Value.int 7)) (base "t"))
       in
       Staged.stage (fun () ->
           Expirel_exec.Executor.run ~tau:(Time.of_int 100) ~db plan)) ]

let all_tests = figure_tests @ scale_tests @ index_tests @ substrate_tests

let run () =
  Bench_util.section "Bechamel micro-benchmarks (time per run)";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ~kde:None () in
  let grouped = Test.make_grouped ~name:"expirel" all_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.sprintf "%12.1f" est
          | Some _ | None -> "n/a"
        in
        [ name; ns ] :: acc)
      results []
    |> List.sort compare
  in
  Bench_util.table ~headers:[ "benchmark"; "ns/run" ] rows
