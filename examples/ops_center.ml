(* An operations centre built on the full stack: a durable on-call
   roster, continuous queries pushing events at exact expiration times,
   and predictive integrity constraints that warn before coverage gaps
   happen.

   Run with: dune exec examples/ops_center.exe *)

open Expirel_core
open Expirel_storage
open Expirel_exec

let fin = Time.of_int
let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let dir = Filename.temp_dir "expirel" "ops" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  section "A durable on-call roster (WAL + checkpointing)";
  let t = Durable.open_dir dir in
  Durable.create_table t ~name:"oncall" ~columns:[ "op"; "level" ];
  (* Shifts end at known times: that IS the expiration time. *)
  List.iter
    (fun (op, level, shift_end) ->
      Durable.insert t "oncall" (Tuple.ints [ op; level ]) ~texp:(fin shift_end))
    [ 1, 1, 60; 2, 1, 25; 3, 2, 40; 4, 2, 95 ];
  Printf.printf "4 operators on call; WAL holds %d records\n" (Durable.wal_records t);

  let db = Durable.database t in
  let seniors =
    Algebra.(select (Predicate.eq_const 2 (Value.int 1)) (base "oncall"))
  in

  section "Predictive integrity constraints";
  let inv = Invariant.create db in
  Invariant.add inv ~name:"senior-coverage" (Planner.plan ~db seniors)
    (Invariant.Min_cardinality 2);
  Invariant.add inv ~name:"anyone-awake"
    (Planner.plan ~db (Algebra.base "oncall"))
    (Invariant.Min_cardinality 1);
  List.iter
    (fun name ->
      match Invariant.next_violation inv ~name ~horizon:(fin 200) with
      | Some at ->
        Printf.printf "  %-16s will break at t=%s — act before then!\n" name
          (Time.to_string at)
      | None -> Printf.printf "  %-16s holds for the next 200 ticks\n" name)
    (Invariant.names inv);

  (* Act on the prediction: extend operator 2's shift ahead of time. *)
  Durable.insert t "oncall" (Tuple.ints [ 2; 1 ]) ~texp:(fin 80);
  Printf.printf "renewed operator 2 through t=80; senior coverage now breaks at %s\n"
    (match Invariant.next_violation inv ~name:"senior-coverage" ~horizon:(fin 200) with
     | Some at -> Time.to_string at
     | None -> "never");

  section "Continuous queries: exact-time push notifications";
  let subs = Subscription.create db in
  Subscription.subscribe subs ~name:"seniors" (Planner.plan ~db seniors)
    (fun event ->
      match event with
      | Subscription.Row_expired { tuple; at; _ } ->
        Printf.printf "  t=%-3s off-shift: %s\n" (Time.to_string at)
          (Tuple.to_string tuple)
      | Subscription.Row_appeared { tuple; at; _ } ->
        Printf.printf "  t=%-3s on-shift:  %s\n" (Time.to_string at)
          (Tuple.to_string tuple)
      | Subscription.Refreshed { at; _ } ->
        Printf.printf "  t=%-3s (view refreshed)\n" (Time.to_string at));
  Subscription.advance subs (fin 90);
  (* The subscription drove the in-memory clock; record the time change
     durably too (a no-op on the live state, one record in the WAL). *)
  Durable.advance_to t (fin 90);
  Printf.printf "seniors on call at t=90: %d\n"
    (Relation.cardinal (Subscription.current subs "seniors"));

  section "Crash recovery";
  let wal_before = Durable.wal_records t in
  Durable.close t;
  let reopened = Durable.open_dir dir in
  Printf.printf "reopened: clock back at t=%s, %d live operator(s)\n"
    (Time.to_string (Durable.now reopened))
    (Relation.cardinal (Database.snapshot (Durable.database reopened) "oncall"));
  let snapshot_records = Durable.checkpoint reopened in
  Printf.printf
    "checkpoint: %d wal records compacted into a %d-record snapshot\n\
     (expired shifts were never written: expiration is compaction)\n"
    wal_before snapshot_records;
  Durable.close reopened
