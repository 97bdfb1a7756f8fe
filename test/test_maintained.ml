open Expirel_core
open Expirel_paper
open Expirel_workload

let fin = Time.of_int

(* --- directed lifecycle tests on the paper's data --- *)

let difference = Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))
let histogram = Algebra.(aggregate [ 2 ] Aggregate.Count (base "Pol"))

let test_insert_propagates () =
  let v = Maintained.materialise ~env:News.figure1_env ~tau:Time.zero difference in
  Alcotest.(check int) "initially {<3>}" 1 (Relation.cardinal (Maintained.read v));
  (* A new politics-only profile appears in the difference at once. *)
  let v = Maintained.insert v ~relation:"Pol" (Tuple.ints [ 9; 50 ]) ~texp:(fin 30) in
  Alcotest.(check bool) "<9> visible" true
    (Relation.mem (Tuple.ints [ 9 ]) (Maintained.read v));
  (* The same user gains an elections profile: masked again. *)
  let v = Maintained.insert v ~relation:"El" (Tuple.ints [ 9; 60 ]) ~texp:(fin 20) in
  Alcotest.(check bool) "<9> masked" false
    (Relation.mem (Tuple.ints [ 9 ]) (Maintained.read v));
  (* Explicitly deleting the elections profile reveals it again. *)
  let v = Maintained.delete v ~relation:"El" (Tuple.ints [ 9; 60 ]) in
  Alcotest.(check bool) "<9> revealed with Pol's texp" true
    (Time.equal (Relation.texp (Maintained.read v) (Tuple.ints [ 9 ])) (fin 30))

let test_update_overwrites_texp () =
  let v = Maintained.materialise ~env:News.figure1_env ~tau:Time.zero histogram in
  Alcotest.(check bool) "count 2 initially" true
    (Relation.mem (Tuple.ints [ 1; 25; 2 ]) (Maintained.read v));
  (* Renewing user 1's profile (update = new expiration time). *)
  let v = Maintained.insert v ~relation:"Pol" (Tuple.ints [ 1; 25 ]) ~texp:(fin 40) in
  Alcotest.(check bool) "count still 2" true
    (Relation.mem (Tuple.ints [ 1; 25; 2 ]) (Maintained.read v));
  (* A third 25-degree profile bumps the count. *)
  let v = Maintained.insert v ~relation:"Pol" (Tuple.ints [ 7; 25 ]) ~texp:(fin 40) in
  Alcotest.(check bool) "count 3 now" true
    (Relation.mem (Tuple.ints [ 1; 25; 3 ]) (Maintained.read v));
  Alcotest.(check bool) "old count gone" false
    (Relation.mem (Tuple.ints [ 1; 25; 2 ]) (Maintained.read v))

let test_advance_refreshes_locally () =
  let v = Maintained.materialise ~env:News.figure1_env ~tau:Time.zero difference in
  let v = Maintained.advance v ~to_:(fin 5) in
  (* The Figure 3(d) state: the difference grew by expiration alone. *)
  Alcotest.(check int) "three tuples at 5" 3 (Relation.cardinal (Maintained.read v));
  Alcotest.(check bool) "refresh counted" true
    (List.assoc "local-refreshes" (Maintained.stats v) > 0)

let test_guards () =
  let v = Maintained.materialise ~env:News.figure1_env ~tau:(fin 5) difference in
  Alcotest.check_raises "stale insert" (Invalid_argument "Maintained.insert: texp <= now")
    (fun () -> ignore (Maintained.insert v ~relation:"Pol" (Tuple.ints [ 1; 1 ]) ~texp:(fin 3)));
  Alcotest.check_raises "backwards" (Invalid_argument "Maintained.advance: moving backwards")
    (fun () -> ignore (Maintained.advance v ~to_:(fin 1)));
  (* Inserting into a relation the view does not read is a no-op. *)
  let v' = Maintained.insert v ~relation:"Other" (Tuple.ints [ 1; 1 ]) ~texp:(fin 9) in
  Alcotest.(check bool) "unknown base ignored" true
    (Relation.equal (Maintained.read v) (Maintained.read v'))

(* --- the load-bearing property: maintained = recomputed, always --- *)

type event =
  | Ins of string * Tuple.t * int  (* relation, tuple, ttl *)
  | Del of string * Tuple.t
  | Tick of int

let event_gen =
  let open QCheck2.Gen in
  let name = oneofl [ "R1"; "S1"; "R2"; "S2"; "R3" ] in
  let tuple_for n =
    let arity = if n = "R3" then 3 else if n = "R1" || n = "S1" then 1 else 2 in
    Generators.tuple ~arity
  in
  frequency
    [ 5,
      (let* n = name in
       let* t = tuple_for n in
       let* ttl = int_range 1 20 in
       return (Ins (n, t, ttl)));
      2,
      (let* n = name in
       let* t = tuple_for n in
       return (Del (n, t)));
      3, map (fun d -> Tick d) (int_range 0 6) ]

(* Reference: mutate plain relations the same way and re-evaluate. *)
let apply_reference bindings now event =
  match event with
  | Ins (name, t, ttl) ->
    let texp = Time.add now (Time.of_int ttl) in
    ( List.map
        (fun (n, r) ->
          if String.equal n name && Tuple.arity t = Relation.arity r then
            n, Relation.replace t ~texp r
          else n, r)
        bindings,
      now )
  | Del (name, t) ->
    ( List.map
        (fun (n, r) ->
          if String.equal n name && Tuple.arity t = Relation.arity r then
            n, Relation.remove t r
          else n, r)
        bindings,
      now )
  | Tick d -> bindings, Time.add now (Time.of_int d)

let apply_maintained v event =
  match event with
  | Ins (name, t, ttl) ->
    (try
       Maintained.insert v ~relation:name t
         ~texp:(Time.add (Maintained.now v) (Time.of_int ttl))
     with Invalid_argument _ -> v (* arity-mismatched base occurrence *))
  | Del (name, t) ->
    (try Maintained.delete v ~relation:name t with Invalid_argument _ -> v)
  | Tick d -> Maintained.advance v ~to_:(Time.add (Maintained.now v) (Time.of_int d))

let run_scenario strategy (e, bindings) events =
  let env0 = Eval.env_of_list bindings in
  let v = ref (Maintained.materialise ~strategy ~env:env0 ~tau:Time.zero e) in
  let state = ref (bindings, Time.zero) in
  List.for_all
    (fun event ->
      (* Skip arity-mismatched inserts/deletes consistently on both sides. *)
      let name_arity n = Relation.arity (List.assoc n bindings) in
      let skip =
        match event with
        | Ins (n, t, _) | Del (n, t) -> Tuple.arity t <> name_arity n
        | Tick _ -> false
      in
      if skip then true
      else begin
        let bindings', now' = apply_reference (fst !state) (snd !state) event in
        state := (bindings', now');
        v := apply_maintained !v event;
        let fresh =
          Eval.relation_at ~strategy ~env:(Eval.env_of_list bindings') ~tau:now' e
        in
        Relation.equal (Maintained.read !v) fresh
      end)
    events

let scenario_gen =
  QCheck2.Gen.pair (Generators.expr_and_env ())
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) event_gen)

let prop_maintained_equals_recomputation =
  Generators.qtest
    "maintained view = fresh evaluation after any update/advance mix"
    ~count:400 scenario_gen
    (fun (expr_env, events) -> run_scenario Aggregate.Exact expr_env events)

let prop_maintained_conservative =
  Generators.qtest "same, under the conservative aggregation strategy"
    ~count:200 scenario_gen
    (fun (expr_env, events) -> run_scenario Aggregate.Conservative expr_env events)

let suite =
  [ Alcotest.test_case "insert/mask/reveal through a difference" `Quick
      test_insert_propagates;
    Alcotest.test_case "updates rewrite aggregate partitions" `Quick
      test_update_overwrites_texp;
    Alcotest.test_case "advance refreshes non-monotonic nodes locally" `Quick
      test_advance_refreshes_locally;
    Alcotest.test_case "guards" `Quick test_guards;
    prop_maintained_equals_recomputation;
    prop_maintained_conservative ]
