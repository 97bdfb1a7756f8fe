open Expirel_core
open Expirel_storage
open Expirel_exec
open Expirel_workload

let fin = Time.of_int

let setup () =
  let db = Database.create () in
  let pol = Database.create_table db ~name:"Pol" ~columns:News.columns in
  let el = Database.create_table db ~name:"El" ~columns:News.columns in
  Relation.iter (fun t texp -> Table.insert pol t ~texp) News.figure1_pol;
  Relation.iter (fun t texp -> Table.insert el t ~texp) News.figure1_el;
  db

let render = function
  | Subscription.Row_expired { tuple; at; _ } ->
    Printf.sprintf "-%s@%s" (Tuple.to_string tuple) (Time.to_string at)
  | Subscription.Row_appeared { tuple; at; _ } ->
    Printf.sprintf "+%s@%s" (Tuple.to_string tuple) (Time.to_string at)
  | Subscription.Refreshed { at; _ } ->
    Printf.sprintf "refresh@%s" (Time.to_string at)

(* Watches hold a plan, planned once at subscribe time. *)
let watch subs db ~name expr handler =
  Subscription.subscribe subs ~name (Planner.plan ~db expr) handler

(* What the interpreter's clock move does with a registry: deliver, then
   move the clock. *)
let advance subs db tau =
  Subscription.deliver_until subs tau;
  Database.advance_to db tau

(* The subscriber's view: the answer at subscribe time with the pushed
   events folded over it. *)
let folding db expr =
  let folded =
    ref (Executor.run ~db (Planner.plan ~db expr)).Eval.relation
  in
  ( folded,
    function
    | Subscription.Row_expired { tuple; _ } ->
      folded := Relation.remove tuple !folded
    | Subscription.Row_appeared { tuple; texp; _ } ->
      folded := Relation.replace tuple ~texp !folded
    | Subscription.Refreshed _ -> () )

let difference = Algebra.(diff (project [ 1 ] (base "Pol")) (project [ 1 ] (base "El")))
let histogram = Algebra.(project [ 2; 3 ] (aggregate [ 2 ] Aggregate.Count (base "Pol")))

let test_difference_timeline () =
  let db = setup () in
  let subs = Subscription.create db in
  let log = ref [] in
  let folded, fold = folding db difference in
  watch subs db ~name:"d" difference (fun e ->
      fold e;
      log := render e :: !log);
  advance subs db (fin 20);
  (* The full Figure 3(b-d) life of the difference, as push events. *)
  Alcotest.(check (list string)) "event timeline"
    [ "refresh@3"; "+<2>@3";
      "refresh@5"; "+<1>@5";
      "-<1>@10"; "-<3>@10";
      "-<2>@15" ]
    (List.rev !log);
  Alcotest.(check int) "empty at 20" 0 (Relation.cardinal !folded)

let test_histogram_timeline () =
  let db = setup () in
  let subs = Subscription.create db in
  let log = ref [] in
  watch subs db ~name:"h" histogram (fun e -> log := render e :: !log);
  advance subs db (fin 20);
  Alcotest.(check (list string)) "count drop pushed at 10"
    [ "-<25, 2>@10"; "-<35, 1>@10"; "refresh@10"; "+<25, 1>@10"; "-<25, 1>@15" ]
    (List.rev !log)

(* A refresh can drop a still-live row or change its expiration time;
   either leaves the result at the refresh, so folding the events keeps
   reproducing the result. *)
let test_refresh_departures () =
  let db = Database.create () in
  let load name rows =
    let tbl = Database.create_table db ~name ~columns:[ "x"; "y" ] in
    List.iter (fun (vs, e) -> Table.insert tbl (Tuple.ints vs) ~texp:(fin e)) rows
  in
  load "a" [ [ 1; 0 ], 20 ];
  load "b" [ [ 1; 0 ], 15 ];
  load "c" [ [ 1; 0 ], 5 ];
  load "p" [ [ 1; 1 ], 10; [ 1; 2 ], 20 ];
  load "q" [ [ 1; 2 ], 5 ];
  let subs = Subscription.create db in
  let log = ref [] in
  let record e = log := render e :: !log in
  watch subs db ~name:"dropped"
    Algebra.(diff (base "a") (diff (base "b") (base "c")))
    record;
  watch subs db ~name:"redated" Algebra.(project [ 1 ] (diff (base "p") (base "q")))
    record;
  advance subs db (fin 30);
  Alcotest.(check (list string)) "departures at refreshes"
    [ "-<1, 0>@5"; "refresh@5"; "refresh@15"; "+<1, 0>@15"; "-<1, 0>@20";
      "-<1>@5"; "refresh@5"; "+<1>@5"; "-<1>@20" ]
    (List.rev !log)

let test_monotonic_only_expirations () =
  let db = setup () in
  let subs = Subscription.create db in
  let log = ref [] in
  watch subs db ~name:"j"
    Algebra.(join (Predicate.eq_cols 1 3) (base "Pol") (base "El"))
    (fun e -> log := render e :: !log);
  (* A delivery the clock never followed is not repeated: the watch
     keeps only the rows live at the time it was delivered to. *)
  Subscription.deliver_until subs (fin 4);
  Subscription.deliver_until subs (fin 4);
  advance subs db (fin 20);
  Alcotest.(check (list string)) "no refreshes, just expirations"
    [ "-<2, 25, 2, 85>@3"; "-<1, 25, 1, 75>@5" ]
    (List.rev !log)

let test_incremental_advances () =
  (* Advancing in several steps produces the same events as one jump. *)
  let run steps =
    let db = setup () in
    let subs = Subscription.create db in
    let log = ref [] in
    watch subs db ~name:"d" difference (fun e -> log := render e :: !log);
    List.iter (fun tau -> advance subs db (fin tau)) steps;
    List.rev !log
  in
  Alcotest.(check (list string)) "stepwise = direct"
    (run [ 20 ]) (run [ 2; 3; 4; 7; 11; 20 ])

let test_management () =
  let db = setup () in
  let subs = Subscription.create db in
  watch subs db ~name:"a" difference (fun _ -> ());
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Subscription.subscribe: a exists") (fun () ->
      watch subs db ~name:"a" difference (fun _ -> ()));
  Alcotest.(check (list string)) "readers" [ "a" ]
    (Subscription.readers subs "Pol");
  Alcotest.(check bool) "unsubscribe" true (Subscription.unsubscribe subs "a");
  Alcotest.(check bool) "twice" false (Subscription.unsubscribe subs "a");
  Alcotest.(check int) "nothing left to deliver" 0
    (Subscription.forecast_events subs ~until:(fin 20))

(* Property: after arbitrary advances, folding the pushed events over
   the answer at subscribe time equals a fresh evaluation — per-row
   texps included — and event times are nondecreasing. *)
let prop_current_tracks_truth =
  Generators.qtest "subscriptions track the fresh evaluation" ~count:150
    (QCheck2.Gen.pair (Generators.expr_and_env_or_nested_difference ())
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 6)
          (QCheck2.Gen.int_range 0 8)))
    (fun ((expr, bindings), hops) ->
      let db = Database.create () in
      List.iter
        (fun (name, r) ->
          let columns =
            List.init (Relation.arity r) (fun i -> Printf.sprintf "c%d" i)
          in
          let tbl = Database.create_table db ~name ~columns in
          Relation.iter (fun t texp -> Table.insert tbl t ~texp) r)
        bindings;
      let subs = Subscription.create db in
      let last_at = ref Time.zero and ordered = ref true in
      let folded, fold = folding db expr in
      watch subs db ~name:"w" expr (fun e ->
          fold e;
          let at =
            match e with
            | Subscription.Row_expired { at; _ }
            | Subscription.Row_appeared { at; _ }
            | Subscription.Refreshed { at; _ } -> at
          in
          if Time.(at < !last_at) then ordered := false;
          last_at := at);
      List.for_all
        (fun hop ->
          let target = Time.add (Database.now db) (fin hop) in
          advance subs db target;
          let fresh =
            Eval.relation_at
              ~env:(fun n -> Option.map (fun tb -> Table.snapshot tb ~tau:target)
                       (Database.table db n))
              ~tau:target expr
          in
          !ordered && Relation.equal !folded fresh)
        hops)

let suite =
  [ Alcotest.test_case "difference event timeline (Fig 3 as pushes)" `Quick
      test_difference_timeline;
    Alcotest.test_case "histogram count-change events" `Quick test_histogram_timeline;
    Alcotest.test_case "refreshes drop and re-date rows" `Quick
      test_refresh_departures;
    Alcotest.test_case "monotonic views only expire" `Quick
      test_monotonic_only_expirations;
    Alcotest.test_case "stepwise advances" `Quick test_incremental_advances;
    Alcotest.test_case "subscribe/unsubscribe" `Quick test_management;
    prop_current_tracks_truth ]
