open Expirel_core
open Expirel_storage

let fin = Time.of_int

let with_temp_dir f =
  let dir = Filename.temp_dir "expirel" "db" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let db_state db =
  List.map
    (fun name ->
      name, Database.snapshot db name)
    (Database.table_names db)

let check_same_state msg a b =
  Alcotest.(check bool) (msg ^ ": clocks") true
    (Time.equal (Database.now a) (Database.now b));
  Alcotest.(check (list string)) (msg ^ ": tables")
    (Database.table_names a) (Database.table_names b);
  List.iter2
    (fun (name, ra) (_, rb) ->
      Alcotest.(check bool) (msg ^ ": contents of " ^ name) true
        (Relation.equal ra rb))
    (db_state a) (db_state b)

let insert table row texp =
  Wal.Insert { table; tuple = Tuple.ints row; texp = fin texp }

let populate t =
  List.iter (Durable.write t)
    [ Wal.Create_table { name = "pol"; columns = [ "uid"; "deg" ] };
      insert "pol" [ 1; 25 ] 10;
      insert "pol" [ 2; 25 ] 15;
      Wal.Advance (fin 4);
      Wal.Create_table { name = "el"; columns = [ "uid"; "deg" ] };
      insert "el" [ 1; 75 ] 9;
      Wal.Delete { table = "pol"; tuple = Tuple.ints [ 1; 25 ] } ]

let test_reopen () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      Durable.close t;
      let reopened = Durable.open_dir dir in
      check_same_state "reopen" (Durable.database t) (Durable.database reopened);
      Durable.close reopened)

let test_checkpoint_compacts () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      Durable.write t (Wal.Advance (fin 12));
      (* pol<2,25>@15 and nothing else is live ("el" expired at 9). *)
      Alcotest.(check bool) "log non-empty before" true (Durable.wal_records t > 0);
      let written = Durable.checkpoint t in
      (* Advance + 2 create-table + exactly the 1 live tuple. *)
      Alcotest.(check int) "snapshot is compact" 4 written;
      Alcotest.(check int) "log truncated" 0 (Durable.wal_records t);
      (* Post-checkpoint operations land in the fresh log. *)
      Durable.write t (insert "el" [ 9; 9 ] 30);
      Durable.close t;
      let reopened = Durable.open_dir dir in
      check_same_state "checkpoint+log" (Durable.database t)
        (Durable.database reopened);
      Durable.close reopened)

let test_crash_torn_write () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      Durable.close t;
      (* A crash mid-append leaves a torn line; reopening must succeed
         with everything before it. *)
      let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "wal.log") in
      output_string oc "insert pol 99 i9";
      (* no newline, incomplete arity — and the process "dies" here *)
      close_out oc;
      let reopened = Durable.open_dir dir in
      check_same_state "torn tail ignored" (Durable.database t)
        (Durable.database reopened);
      Durable.close reopened)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Bytes appended after the torn tail must not land behind it: the
   reopened store cuts the tail off before it appends, so the write it
   acknowledged, and the position it reached, survive the next reopen. *)
let test_write_after_torn_tail () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      Durable.close t;
      let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "wal.log") in
      output_string oc "insert pol 99 i9";
      close_out oc;
      let t = Durable.open_dir dir in
      Durable.write t (insert "pol" [ 3; 4 ] 20);
      Durable.close t;
      let reopened = Durable.open_dir dir in
      Alcotest.(check int) "position" (Durable.position t) (Durable.position reopened);
      check_same_state "the write survives" (Durable.database t)
        (Durable.database reopened);
      Durable.close reopened)

(* A crash after a checkpoint installed its snapshot but before it
   emptied the log leaves records the snapshot holds: reopening skips
   them, so the position is the checkpoint's, and later writes follow
   it. *)
let test_torn_checkpoint () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      let wal = Filename.concat dir "wal.log" in
      let before = read_file wal in
      ignore (Durable.checkpoint t);
      Durable.close t;
      write_file wal before;
      let reopened = Durable.open_dir dir in
      Alcotest.(check int) "position" (Durable.position t) (Durable.position reopened);
      check_same_state "torn checkpoint" (Durable.database t) (Durable.database reopened);
      Durable.write reopened (insert "pol" [ 3; 4 ] 20);
      Durable.close reopened;
      let again = Durable.open_dir dir in
      Alcotest.(check int) "position after a write" (Durable.position reopened)
        (Durable.position again);
      check_same_state "a write after it" (Durable.database reopened)
        (Durable.database again);
      Durable.close again)

(* A reset (a follower's snapshot bootstrap) empties the replaced
   history's log before it installs the new snapshot: a failure between
   the steps (here the log cannot be recreated, a directory stands in
   its place) leaves the old history whole, never its log on top of the
   new snapshot. *)
let test_failed_reset () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      populate t;
      let wal = Filename.concat dir "wal.log" in
      let log = read_file wal in
      Sys.remove wal;
      Sys.mkdir wal 0o755;
      (match
         Durable.reset_to t ~position:3 [ Wal.Create_table { name = "z"; columns = [ "a" ] } ]
       with
       | () -> Alcotest.fail "reset with no log to write"
       | exception Sys_error _ -> ());
      Durable.close t;
      Sys.rmdir wal;
      write_file wal log;
      let reopened = Durable.open_dir dir in
      Alcotest.(check int) "position" 7 (Durable.position reopened);
      check_same_state "the old history" (Durable.database t) (Durable.database reopened);
      Durable.close reopened)

(* Directories as the text format left them: a log, a checkpoint (text
   snapshot, emptied log, [meta]) and a checkpoint of an empty state.
   Each is refused, never opened empty, and left byte for byte as it
   was. *)
let test_text_format_refused () =
  let text_log = "18:create pol uid deg\n19:insert pol 50 i1 i2\n" in
  List.iter
    (fun (what, files) ->
      with_temp_dir (fun dir ->
          List.iter (fun (name, data) -> write_file (Filename.concat dir name) data) files;
          (match Durable.open_dir dir with
           | t ->
             Durable.close t;
             Alcotest.failf "%s: opened" what
           | exception Failure _ -> ());
          Alcotest.(check (list (pair string string))) (what ^ ": untouched") files
            (List.map
               (fun name -> (name, read_file (Filename.concat dir name)))
               (List.sort compare (Array.to_list (Sys.readdir dir))))))
    [ ("a text log", [ ("wal.log", text_log) ]);
      ( "a text checkpoint",
        [ ("meta", "base:2\n"); ("snapshot.log", text_log); ("wal.log", "") ] );
      ( "an empty text checkpoint",
        [ ("meta", "base:7\n"); ("snapshot.log", ""); ("wal.log", "") ] ) ]

(* Whether the store refuses a record (and so must not log it). *)
let refused t record =
  match Durable.write t record with
  | () -> false
  | exception (Invalid_argument _ | Errors.Unknown_relation _) -> true

let test_validation_logs_nothing () =
  with_temp_dir (fun dir ->
      let t = Durable.open_dir dir in
      Durable.write t (Wal.Create_table { name = "pol"; columns = [ "uid"; "deg" ] });
      Durable.write t (Wal.Advance (fin 3));
      let before = Durable.wal_records t in
      (* Rejected operations must not leave records behind. *)
      List.iter
        (fun (what, record) ->
          Alcotest.(check bool) (what ^ " is refused") true (refused t record))
        [ ("an arity mismatch", insert "pol" [ 1 ] 5);
          ("a texp at or before now", insert "pol" [ 1; 2 ] 3);
          ("an insert into an unknown table", insert "nope" [ 1; 2 ] 5);
          ("an existing table", Wal.Create_table { name = "pol"; columns = [ "x" ] });
          ("a table without columns", Wal.Create_table { name = "z"; columns = [] });
          ("a drop of an unknown table", Wal.Drop_table "nope");
          ("a delete of an absent row",
           Wal.Delete { table = "pol"; tuple = Tuple.ints [ 9; 9 ] });
          ("a backwards clock move", Wal.Advance (fin 2)) ];
      Alcotest.(check int) "no stray records" before (Durable.wal_records t);
      Alcotest.(check (list string)) "no stray tables" [ "pol" ]
        (Database.table_names (Durable.database t));
      Alcotest.(check int) "no stray rows" 0
        (Relation.cardinal (Database.snapshot (Durable.database t) "pol"));
      Durable.close t)

(* Random histories of records written at the moving clock, with
   checkpoints between them: close/reopen always reproduces the same
   state, and the log holds exactly the records the store accepted. *)
type step =
  | Write of Wal.record  (* times relative to the clock: Generators.at_clock *)
  | Check

let step_gen =
  let open QCheck2.Gen in
  let row = map2 (fun a b -> Tuple.ints [ a; b ]) (int_range 0 5) (int_range 0 5) in
  frequency
    [ 5, map2 (fun tuple ttl -> Write (Wal.Insert { table = "r"; tuple; texp = fin ttl }))
        row (int_range 1 20);
      2, map (fun tuple -> Write (Wal.Delete { table = "r"; tuple })) row;
      2, map (fun d -> Write (Wal.Advance (fin d))) (int_range 0 6);
      1, return Check ]

let prop_reopen_equals =
  Generators.qtest "random histories survive close/reopen" ~count:60
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25) step_gen)
    (fun steps ->
      with_temp_dir (fun dir ->
          let t = Durable.open_dir dir in
          Durable.write t (Wal.Create_table { name = "r"; columns = [ "a"; "b" ] });
          let accepted = ref 1 in
          List.iter
            (function
              | Write record ->
                (* A delete of an absent row is refused, like any record
                   the state does not accept. *)
                if not (refused t (Generators.at_clock (Durable.now t) record))
                then incr accepted
              | Check -> ignore (Durable.checkpoint t))
            steps;
          Durable.close t;
          let reopened = Durable.open_dir dir in
          let same =
            Durable.position t = !accepted
            && Time.equal (Database.now (Durable.database t))
                 (Database.now (Durable.database reopened))
            && Relation.equal
                 (Database.snapshot (Durable.database t) "r")
                 (Database.snapshot (Durable.database reopened) "r")
          in
          Durable.close reopened;
          same))

let suite =
  [ Alcotest.test_case "close and reopen" `Quick test_reopen;
    Alcotest.test_case "checkpoint compacts expired tuples" `Quick
      test_checkpoint_compacts;
    Alcotest.test_case "crash with torn write" `Quick test_crash_torn_write;
    Alcotest.test_case "a write after a torn tail survives reopen" `Quick
      test_write_after_torn_tail;
    Alcotest.test_case "a torn checkpoint keeps its position" `Quick
      test_torn_checkpoint;
    Alcotest.test_case "a failed reset leaves the old history whole" `Quick
      test_failed_reset;
    Alcotest.test_case "a directory in the text format is refused" `Quick
      test_text_format_refused;
    Alcotest.test_case "rejected operations leave no records" `Quick
      test_validation_logs_nothing;
    prop_reopen_equals ]
