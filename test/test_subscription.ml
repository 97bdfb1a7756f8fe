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
  Subscription.subscribe ~handler subs ~name (Planner.plan ~db expr)

(* What the interpreter's clock move does with a registry: deliver, then
   move the clock. *)
let advance subs db tau =
  Subscription.deliver_until subs tau;
  Database.advance_to db tau

(* What the interpreter's write path does with a registry: read the
   written row's prior texp, apply the record, feed it. *)
let write_through subs db record =
  let before =
    match record with
    | Wal.Insert { table; tuple; _ } | Wal.Delete { table; tuple } ->
      Table.texp_of (Database.table_exn db table) tuple
    | Wal.Create_table _ | Wal.Drop_table _ | Wal.Advance _ -> None
  in
  Database.apply db record;
  Subscription.write subs ~before record

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

(* A write reaches each watch reading its table at the clock, with no
   refresh event.  A watch whose rows are the table's rows, selected and
   permuted, takes the written row as its delta: a re-dated row expires
   then appears, an unchanged texp fires nothing, a row the selection
   refuses never shows.  A column-dropping projection reruns and reports
   only the rows whose texp changed. *)
let test_write_events () =
  let db = Database.create () in
  ignore (Database.create_table db ~name:"r" ~columns:[ "a"; "b" ]);
  let subs = Subscription.create db in
  let logged name expr =
    let log = ref [] in
    watch subs db ~name expr (fun e -> log := render e :: !log);
    log
  in
  let sel =
    logged "sel"
      Algebra.(
        project [ 2; 1 ]
          (select Predicate.(Cmp (Lt, Col 1, Const (Value.int 5))) (base "r")))
  in
  let proj = logged "proj" Algebra.(project [ 1 ] (base "r")) in
  let write = write_through subs db in
  let insert a b texp =
    write (Wal.Insert { table = "r"; tuple = Tuple.ints [ a; b ]; texp = fin texp })
  in
  insert 1 7 10;
  insert 1 7 12;
  insert 1 7 12;
  insert 9 9 4;
  insert 1 8 4;
  write (Wal.Delete { table = "r"; tuple = Tuple.ints [ 1; 7 ] });
  Alcotest.(check (list string)) "delta watch"
    [ "+<7, 1>@0"; "-<7, 1>@0"; "+<7, 1>@0"; "+<8, 1>@0"; "-<7, 1>@0" ]
    (List.rev !sel);
  Alcotest.(check (list string)) "rerun watch"
    [ "+<1>@0"; "-<1>@0"; "+<1>@0"; "+<9>@0"; "-<1>@0"; "+<1>@0" ]
    (List.rev !proj)

(* A grouped COUNT entry rewrites only the output rows whose texp
   moves: a refresh that touches rows but moves none, and a write that
   leaves its group's row as it was, keep the answer's relation
   physically the one before, so a diff against it answers at its
   pointer check. *)
let test_counted_keeps_unchanged_rows () =
  let db = Database.create () in
  ignore (Database.create_table db ~name:"r" ~columns:[ "k"; "g" ]);
  let subs = Subscription.create db in
  let logs = Hashtbl.create 2 in
  let counted name projection =
    let log = ref [] in
    Hashtbl.replace logs name log;
    watch subs db ~name
      Algebra.(project projection (aggregate [ 2 ] Aggregate.Count (base "r")))
      (fun e -> log := render e :: !log)
  in
  counted "by_group" [ 2 ];
  counted "by_count" [ 3 ];
  let insert k g texp =
    write_through subs db (Wal.Insert { table = "r"; tuple = Tuple.ints [ k; g ]; texp = fin texp })
  in
  List.iteri
    (fun k (g, texp) -> insert k g texp)
    [ (1, 100); (1, 200); (2, 20); (2, 30); (2, 50); (3, 5); (3, 60); (3, 70) ];
  Alcotest.(check int) "kept as per-group state" 6 (Subscription.groups subs);
  let answer name = (Option.get (Subscription.result subs name)).Eval.relation in
  (* by_count: <2>@100 (group 1) and <3>@max(20, 5) (groups 2 and 3).
     At 5 group 3 moves from <3> to <2>@60: both rows are touched, and
     neither texp moves. *)
  let before = answer "by_count" in
  Hashtbl.find logs "by_count" := [];
  advance subs db (fin 6);
  Alcotest.(check (list string)) "the refresh moved no row" [ "refresh@5" ]
    (List.rev !(Hashtbl.find logs "by_count"));
  Alcotest.(check bool) "a refresh moving no row keeps the relation" true
    (answer "by_count" == before);
  Alcotest.(check bool) "a diff against it answers at once" true
    (Relation.diff ~limit:0 before (answer "by_count") = Some ([], [], 2));
  (* by_group: a later member leaves <2>@20 as it was. *)
  let before = answer "by_group" in
  insert 9 2 80;
  Alcotest.(check bool) "a write moving no row keeps the relation" true
    (answer "by_group" == before)

(* A grouped COUNT entry's groups before and after an ADVANCE differ
   exactly in the groups whose nu it passes — their earliest members
   expired — so [standing_diff] names those (a slice-less group for one
   gone), each as the entry now condenses it.  A HORIZON forecast over
   the same window first walks the entry without keeping the walk, and
   leaves its groups physically as they were. *)
let test_counted_logs_passed_nu () =
  let db = Database.create () in
  let r = Database.create_table db ~name:"r" ~columns:[ "k"; "g" ] in
  List.iteri
    (fun k (g, texp) -> Table.insert r (Tuple.ints [ k; g ]) ~texp:(fin texp))
    [ (1, 10); (1, 50); (2, 15); (2, 15); (2, 50); (3, 30); (3, 50); (4, 12); (5, 50) ];
  let subs = Subscription.create db in
  let entry =
    Subscription.prepare subs
      (Planner.plan ~db Algebra.(project [ 2; 3 ] (aggregate [ 2 ] Aggregate.Count (base "r"))))
  in
  Subscription.install subs ~name:"w" entry;
  let before = Subscription.standing entry in
  Alcotest.(check bool) "a reader holding nothing gets every group" true
    (Partial_agg.standing_diff Partial_agg.standing_empty before
     = Partial_agg.standing_partial before);
  Alcotest.(check bool) "the forecast sees the window's events" true
    (Subscription.forecast_events subs ~until:(fin 20) > 0);
  Alcotest.(check bool) "the forecast leaves the groups" true
    (Subscription.standing entry == before);
  Alcotest.(check int) "and no group differs" 0
    (List.length (Partial_agg.standing_diff before (Subscription.standing entry)));
  advance subs db (fin 20);
  let after = Subscription.standing entry in
  let groups = Partial_agg.standing_diff before after in
  let keys = List.map (fun (g : Partial_agg.group) -> g.key) groups in
  Alcotest.(check bool) "exactly the groups whose nu passed" true
    (keys = [ [ Value.Int 1 ]; [ Value.Int 2 ]; [ Value.Int 4 ] ]);
  let now = Partial_agg.standing_partial after in
  List.iter
    (fun (g : Partial_agg.group) ->
      Alcotest.(check bool) "each as the entry condenses it" true
        (match List.find_opt (fun (h : Partial_agg.group) -> h.key = g.key) now with
         | Some h -> h = g
         | None -> g.slices = []))
    groups;
  Alcotest.(check bool) "the emptied group ships slice-less" true
    (List.exists (fun (g : Partial_agg.group) -> g.key = [ Value.Int 4 ] && g.slices = []) groups)

(* A step of the law below: an advance by a hop, or a write applied the
   way the interpreter's write path applies it.  A delete names the
   k-th live row of its table (mod the count), so most deletes hit. *)
type step =
  | Hop of int
  | Insert of string * Tuple.t * int  (* ttl *)
  | Delete of string * int

let step_gen =
  let open QCheck2.Gen in
  let table = oneofl [ ("R1", 1); ("S1", 1); ("R2", 2); ("S2", 2); ("R3", 3) ] in
  frequency
    [ (2, map (fun hop -> Hop hop) (int_range 0 8));
      (2,
       let* name, arity = table in
       map2 (fun tuple ttl -> Insert (name, tuple, ttl))
         (Generators.tuple ~arity) (int_range 1 12));
      (1, map2 (fun (name, _) k -> Delete (name, k)) table nat) ]

(* Property: after arbitrary advances, inserts and deletes, folding the
   pushed events over the answer at subscribe time equals a fresh
   evaluation — per-row texps included — and event times are
   nondecreasing.  One watch in five is a grouped COUNT over a base,
   which keeps per-group state instead of rerunning. *)
let prop_current_tracks_truth =
  Generators.qtest "subscriptions track the fresh evaluation" ~count:150
    (QCheck2.Gen.pair
       (QCheck2.Gen.frequency
          [ (4, Generators.expr_and_env_or_nested_difference ());
            (1, QCheck2.Gen.pair Generators.grouped_count Generators.env_bindings) ])
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 10) step_gen))
    (fun ((expr, bindings), steps) ->
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
      let write = write_through subs db in
      List.for_all
        (fun step ->
          let now = Database.now db in
          (match step with
           | Hop hop -> advance subs db (Time.add now (fin hop))
           | Insert (table, tuple, ttl) ->
             write (Wal.Insert { table; tuple; texp = Time.add now (fin ttl) })
           | Delete (table, k) ->
             (match Relation.tuples (Database.snapshot db table) with
              | [] -> ()
              | rows ->
                let tuple = List.nth rows (k mod List.length rows) in
                write (Wal.Delete { table; tuple })));
          let tau = Database.now db in
          let fresh =
            Eval.relation_at
              ~env:(fun n -> Option.map (fun tb -> Table.snapshot tb ~tau)
                       (Database.table db n))
              ~tau expr
          in
          !ordered && Relation.equal !folded fresh)
        steps)

(* A change to a standing COUNT state: a member of group [k] expiring
   at [texp], the [i]-th member added so far taken out again, or every
   member expiring by [tau] dropped. *)
type change =
  | Add of int * int
  | Take of int
  | Expire of int

(* [Partial_agg.standing_diff] of a state against one that any changes
   made from it: the groups it names come in strictly ascending key
   order, and putting them in place of the first state's groups (a
   slice-less one removed) gives the second state's groups exactly. *)
let prop_standing_diff =
  let change =
    QCheck2.Gen.(
      frequency
        [ (5, map2 (fun k texp -> Add (k, texp)) (int_range 0 9) (int_range 1 30));
          (2, map (fun i -> Take i) (int_range 0 50));
          (1, map (fun tau -> Expire tau) (int_range 1 30)) ])
  in
  Generators.qtest "standing_diff patches a state into a later one" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 40) change) (list_size (int_range 0 20) change))
    (fun (base, changes) ->
      let apply (st, members) = function
        | Add (k, texp) ->
          ( Partial_agg.standing_change st [ Value.Int k ] (fin texp) 1,
            members @ [ ([ Value.Int k ], fin texp) ] )
        | Take _ when members = [] -> (st, members)
        | Take i ->
          let key, texp = List.nth members (i mod List.length members) in
          ( Partial_agg.standing_change st key texp (-1),
            List.filteri (fun j _ -> j <> i mod List.length members) members )
        | Expire tau ->
          ( fst (Partial_agg.standing_expire st (fin tau)),
            List.filter (fun (_, texp) -> Time.(texp > fin tau)) members )
      in
      let start = List.fold_left apply (Partial_agg.standing_empty, []) base in
      let before = fst start and after = fst (List.fold_left apply start changes) in
      let diff = Partial_agg.standing_diff before after in
      let keys = List.map (fun (g : Partial_agg.group) -> g.key) diff in
      let rec ascending = function
        | a :: (b :: _ as rest) -> List.compare Value.compare a b < 0 && ascending rest
        | [ _ ] | [] -> true
      in
      let patched =
        List.fold_left
          (fun groups (g : Partial_agg.group) ->
            let others = List.filter (fun (h : Partial_agg.group) -> h.key <> g.key) groups in
            if g.slices = [] then others else g :: others)
          (Partial_agg.standing_partial before) diff
      in
      ascending keys
      && Partial_agg.standing_diff after after = []
      && List.sort compare patched = List.sort compare (Partial_agg.standing_partial after))

(* [Group_map.diff] of any two versions of a history of changes, each
   either kept as the changes left it (sharing subtrees with its
   neighbours) or rebuilt from its bindings (sharing none), names
   exactly the keys a naive walk of two stdlib maps finds changed, in
   ascending order; every version is well formed and its size is its
   bindings' count; and patching the first with the diff, one change
   at a time or in one ordered merge, gives the second's bindings. *)
let prop_group_map_diff =
  let module M = Map.Make (struct
    type t = Value.t list

    let compare = List.compare Value.compare
  end) in
  let module G = Expirel_exec.Group_map in
  let op =
    QCheck2.Gen.(
      pair (int_range 0 40) (frequency [ (3, map Option.some (int_range 0 3)); (1, pure None) ]))
  in
  Generators.qtest "Group_map.diff equals a naive walk, shared or rebuilt" ~count:300
    QCheck2.Gen.(
      quad (list_size (int_range 0 80) op) (int_range 0 80) (int_range 0 80) (pair bool bool))
    (fun (ops, i, j, (rebuild_i, rebuild_j)) ->
      let step (g, m) (k, v) =
        let key = [ Value.Int k ] in
        match v with
        | Some v -> (G.add key v g, M.add key v m)
        | None -> (G.remove key g, M.remove key m)
      in
      let history =
        List.rev (List.fold_left (fun h o -> step (List.hd h) o :: h) [ (G.empty, M.empty) ] ops)
      in
      let version n rebuild =
        let g, m = List.nth history (n mod List.length history) in
        ((if rebuild then M.fold G.add m G.empty else g), m)
      in
      let (ga, ma), (gb, mb) = (version i rebuild_i, version j rebuild_j) in
      let naive =
        List.filter_map
          (fun key ->
            match (M.find_opt key ma, M.find_opt key mb) with
            | a, Some v when a <> Some v -> Some (key, Some v)
            | Some _, None -> Some (key, None)
            | _ -> None)
          (List.sort_uniq (List.compare Value.compare)
             (List.map fst (M.bindings ma) @ List.map fst (M.bindings mb)))
      in
      let sized g = G.well_formed g && G.cardinal g = G.fold (fun _ _ n -> n + 1) g 0 in
      let bindings g = List.rev (G.fold (fun k v acc -> (k, v) :: acc) g []) in
      let patched = G.patch ga naive in
      sized ga && sized gb && sized patched
      && bindings gb = M.bindings mb
      && G.diff ga gb = naive
      && bindings patched = M.bindings mb)

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
    Alcotest.test_case "writes: delta and rerun" `Quick test_write_events;
    Alcotest.test_case "a grouped COUNT keeps unchanged rows by pointer" `Quick
      test_counted_keeps_unchanged_rows;
    Alcotest.test_case "a grouped COUNT logs the groups whose nu passed" `Quick
      test_counted_logs_passed_nu;
    prop_standing_diff;
    prop_group_map_diff;
    prop_current_tracks_truth ]
